package engine

import "sync"

// The inbox's bounds: how many control messages and how many events may
// wait for the engine goroutine before their posters wait too.
const (
	maxQueuedControl = 1024
	maxQueuedEvents  = 4096
)

// inbox holds the turns handed to the engine goroutine: control messages
// from the links and the observer, and posted events. Each kind is a FIFO
// that starts empty and doubles on demand up to its bound. A poster past
// the bound waits until the engine goroutine makes room or Stop closes the
// inbox — the place and the bound at which it would block on a buffered
// channel, without the channel's whole buffer allocated up front and
// scanned by every GC cycle on an engine that never fills it.
type inbox struct {
	mu     sync.Mutex
	room   sync.Cond // broadcast when a full FIFO gives up a slot, and on close
	ctrl   fifo[ctrlMsg]
	events fifo[func(API)]
	closed bool
	// ready wakes the engine goroutine. Buffered one deep: a pending signal
	// says the inbox may hold a turn, and absorbs every later one until the
	// engine goroutine takes it.
	ready chan struct{}
}

func (b *inbox) init() {
	b.room.L = &b.mu
	b.ready = make(chan struct{}, 1)
}

// post appends v to q, waiting while q holds bound entries, and wakes the
// engine goroutine. False means the inbox is closed and v was not queued.
func post[T any](b *inbox, q *fifo[T], bound int, v T) bool {
	b.mu.Lock()
	for !b.closed && q.n == bound {
		b.room.Wait()
	}
	if b.closed {
		b.mu.Unlock()
		return false
	}
	q.push(v, bound)
	b.mu.Unlock()
	b.wake()
	return true
}

// take pops q's head, making room for the posters waiting on a full q.
// Caller holds b.mu; q is not empty.
func take[T any](b *inbox, q *fifo[T], bound int) T {
	if q.n == bound {
		b.room.Broadcast()
	}
	return q.pop()
}

func (b *inbox) wake() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// next pops the next turn, a control message before an event; fn is nil
// for a control message, and ok false when the inbox is empty. What is
// left re-arms ready, judged under the inbox's lock: every turn is its own
// wake-up, so the engine goroutine's select sees work signals and ticks
// between them.
func (b *inbox) next() (cm ctrlMsg, fn func(API), ok bool) {
	b.mu.Lock()
	switch {
	case b.ctrl.n > 0:
		cm = take(b, &b.ctrl, maxQueuedControl)
	case b.events.n > 0:
		fn = take(b, &b.events, maxQueuedEvents)
	default:
		b.mu.Unlock()
		return cm, nil, false
	}
	more := b.ctrl.n+b.events.n > 0
	b.mu.Unlock()
	if more {
		b.wake()
	}
	return cm, fn, true
}

// nextControl pops the oldest control message, if any.
func (b *inbox) nextControl() (ctrlMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ctrl.n == 0 {
		return ctrlMsg{}, false
	}
	return take(b, &b.ctrl, maxQueuedControl), true
}

// close refuses every later post and releases the posters waiting for room.
// What is queued stays queued: the engine goroutine is on its way out.
func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.room.Broadcast()
	b.mu.Unlock()
}

// fifo is a queue in a ring buffer that starts empty and doubles when full,
// up to the bound its caller passes.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) push(v T, bound int) {
	if q.n == len(q.buf) {
		buf := make([]T, min(max(2*len(q.buf), 8), bound))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
