// Package queue provides the thread-safe circular queue that implements
// the shared receiver and sender buffers between the engine thread and the
// receiver/sender goroutines, as in the paper's engine design: receivers
// block when their buffer is full, senders sleep when their buffer is
// empty and are signaled by the engine.
//
// Every ring carries two service-class lanes. Control messages (heartbeats,
// Join/Depart, BrokenSource cascades — anything message.ClassControl) ride
// a priority lane that consumers always drain first, and control pushes
// never block on a data-full ring: under data-plane overload a failure
// notification overtakes megabytes of queued payload instead of waiting
// behind it. Per-lane FIFO order is preserved; only cross-class order is
// relaxed, which is the point.
package queue

import (
	"errors"
	"sync"
	"time"

	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/metrics"
)

// ErrClosed is returned by operations on a closed queue once it has
// drained.
var ErrClosed = errors.New("queue: closed")

// delayAlpha weights new queueing-delay samples in the per-lane EWMA,
// mirroring TCP's SRTT smoothing.
const delayAlpha = 0.125

// slot is one position of a lane: the message reference and when it was
// pushed, so consumers can measure per-class queueing delay without
// touching the messages themselves.
type slot struct {
	m  *message.Msg
	at time.Time
}

// lane is one service class's bounded FIFO within a Ring: a window of the
// ring's slot slab.
type lane struct {
	slots  []slot
	head   int // index of the oldest element
	length int
	delay  float64            // smoothed queueing delay, nanoseconds
	hist   *metrics.Histogram // optional delay distribution (nil: EWMA only)
}

func (l *lane) full() bool { return l.length == len(l.slots) }

func (l *lane) push(m *message.Msg, now time.Time) {
	i := (l.head + l.length) % len(l.slots)
	l.slots[i] = slot{m: m, at: now}
	l.length++
	if invariant.Enabled {
		invariant.Assert(l.length <= len(l.slots),
			"lane length %d past capacity %d after push", l.length, len(l.slots))
	}
}

func (l *lane) pop(now time.Time) *message.Msg {
	sl := &l.slots[l.head]
	m := sl.m
	d := float64(now.Sub(sl.at))
	sl.m = nil
	if l.delay == 0 {
		l.delay = d
	} else {
		l.delay += delayAlpha * (d - l.delay)
	}
	l.hist.Observe(int64(d))
	l.head = (l.head + 1) % len(l.slots)
	l.length--
	if invariant.Enabled {
		invariant.Assert(l.length >= 0, "lane length %d negative after pop", l.length)
	}
	return m
}

// Ring is a bounded two-lane FIFO of message references with blocking and
// non-blocking endpoints. The zero value is not usable: Init builds a ring
// in place, inside whatever holds it — a link's sender or receiver keeps
// its ring by value, so the ring costs its holder one slot slab and
// nothing else. A ring must not be copied after Init. All methods are
// safe for concurrent use by any number of goroutines.
type Ring struct {
	mu          sync.Mutex
	dataNotFull sync.Cond
	ctrlNotFull sync.Cond
	notEmpty    sync.Cond

	data   lane
	ctrl   lane
	closed bool
	// held records that a PopBatchHold consumer has taken messages out and
	// not yet said it is done with them. It is set under the same lock as
	// the pop, so "nothing queued and nothing held" (Idle) is one fact.
	held bool
}

// Init makes r an empty ring holding at most capacity messages per lane,
// both lanes in one slab of 2·capacity slots. Capacity must be positive.
func (r *Ring) Init(capacity int) {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	slab := make([]slot, 2*capacity)
	r.ctrl.slots = slab[:capacity:capacity]
	r.data.slots = slab[capacity:]
	r.dataNotFull.L = &r.mu
	r.ctrlNotFull.L = &r.mu
	r.notEmpty.L = &r.mu
}

// New returns a ring built by Init, for holders that keep one behind a
// pointer: the engine's local-source ring, the observer link's ring, and
// the benchmark's micro rows.
func New(capacity int) *Ring {
	r := new(Ring)
	r.Init(capacity)
	return r
}

// SetDelayHists attaches per-lane queueing-delay histograms, shared
// across every ring of an engine: each pop observes how long the message
// sat buffered, in nanoseconds. The EWMA the overload detector reads is
// unaffected; the histograms feed the QoS reports. Either may be nil.
func (r *Ring) SetDelayHists(ctrl, data *metrics.Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctrl.hist = ctrl
	r.data.hist = data
}

// laneOf routes a message to its service-class lane.
func (r *Ring) laneOf(m *message.Msg) *lane {
	if m.IsControl() {
		return &r.ctrl
	}
	return &r.data
}

// Cap reports the fixed per-lane capacity.
func (r *Ring) Cap() int { return len(r.data.slots) }

// Len reports the current number of buffered messages across both lanes.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data.length + r.ctrl.length
}

// Delays reports the smoothed per-class queueing delays: how long popped
// messages of each class sat buffered. Zero until a class has been popped.
func (r *Ring) Delays() (ctrl, data time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.ctrl.delay), time.Duration(r.data.delay)
}

// Push appends m to its class lane, blocking while that lane is full — a
// control push never waits on queued data. It returns ErrClosed if the
// ring is (or becomes) closed before the message is accepted; the caller
// retains ownership of m in that case.
func (r *Ring) Push(m *message.Msg) error {
	l := r.laneOf(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	for l.full() && !r.closed {
		r.notFullCond(l).Wait()
	}
	if r.closed {
		return ErrClosed
	}
	l.push(m, time.Now())
	r.notEmpty.Signal()
	return nil
}

// TryPush appends m to its class lane without blocking. It reports whether
// the message was accepted; a full lane or closed ring rejects it.
func (r *Ring) TryPush(m *message.Msg) bool {
	l := r.laneOf(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || l.full() {
		return false
	}
	l.push(m, time.Now())
	r.notEmpty.Signal()
	return true
}

func (r *Ring) notFullCond(l *lane) *sync.Cond {
	if l == &r.ctrl {
		return &r.ctrlNotFull
	}
	return &r.dataNotFull
}

// PushBatch appends every message of ms in order, each to its class lane,
// blocking while a message's lane is full, moving as many messages as fit
// under each lock acquisition and issuing one consumer wakeup per transfer
// instead of one per message. It returns the number of messages accepted;
// on ErrClosed the caller retains ownership of ms[n:]. A nil or empty
// batch is a no-op.
func (r *Ring) PushBatch(ms []*message.Msg) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pushed := 0
	for pushed < len(ms) {
		l := r.laneOf(ms[pushed])
		for l.full() && !r.closed {
			r.ctrlFirstWake() // consumers may be asleep on work pushed so far
			r.notFullCond(l).Wait()
		}
		if r.closed {
			return pushed, ErrClosed
		}
		now := time.Now()
		moved := 0
		for pushed < len(ms) {
			l = r.laneOf(ms[pushed])
			if l.full() {
				break
			}
			l.push(ms[pushed], now)
			pushed++
			moved++
		}
		r.wakeConsumers(moved)
	}
	return pushed, nil
}

// ctrlFirstWake signals one consumer if anything is buffered; used before
// a producer goes to sleep mid-batch so prior pushes are not stranded.
func (r *Ring) ctrlFirstWake() {
	if r.data.length+r.ctrl.length > 0 {
		r.notEmpty.Signal()
	}
}

func (r *Ring) wakeConsumers(n int) {
	switch {
	case n == 1:
		r.notEmpty.Signal()
	case n > 1:
		r.notEmpty.Broadcast()
	}
}

// TryPushBatch appends as many leading messages of ms as currently fit
// their lanes, in order, without blocking, and reports how many were
// accepted. The transfer stops at the first message whose lane is full so
// the caller retains a contiguous tail ms[n:]; a closed ring accepts none.
func (r *Ring) TryPushBatch(ms []*message.Msg) int {
	if len(ms) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	now := time.Now()
	pushed := 0
	for pushed < len(ms) {
		l := r.laneOf(ms[pushed])
		if l.full() {
			break
		}
		l.push(ms[pushed], now)
		pushed++
	}
	r.wakeConsumers(pushed)
	return pushed
}

// Pop removes and returns the oldest buffered message, control lane first,
// blocking while the ring is empty. Once the ring is closed and drained,
// Pop returns ErrClosed.
func (r *Ring) Pop() (*message.Msg, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.data.length+r.ctrl.length == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if r.data.length+r.ctrl.length == 0 {
		return nil, ErrClosed
	}
	now := time.Now()
	if r.ctrl.length > 0 {
		m := r.ctrl.pop(now)
		r.ctrlNotFull.Signal()
		return m, nil
	}
	m := r.data.pop(now)
	r.dataNotFull.Signal()
	return m, nil
}

// TryPop removes and returns the oldest buffered message, control lane
// first, without blocking; ok is false when the ring is empty.
func (r *Ring) TryPop() (m *message.Msg, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if r.ctrl.length > 0 {
		m := r.ctrl.pop(now)
		r.ctrlNotFull.Signal()
		return m, true
	}
	if r.data.length > 0 {
		m := r.data.pop(now)
		r.dataNotFull.Signal()
		return m, true
	}
	return nil, false
}

// TryPopCtrl removes and returns the oldest buffered control message
// without blocking and without touching the data lane. The per-sender
// writers use it between individual shaped writes so control that arrives
// while a data batch is draining jumps ahead of the batch's remaining
// messages instead of waiting out the whole transfer.
func (r *Ring) TryPopCtrl() (m *message.Msg, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctrl.length == 0 {
		return nil, false
	}
	m = r.ctrl.pop(time.Now())
	r.ctrlNotFull.Signal()
	return m, true
}

// PopBatch removes up to len(dst) of the oldest messages into dst —
// control lane exhausted first — under a single lock acquisition with a
// single producer wakeup per lane, blocking while the ring is empty. It
// returns the number of messages popped (at least one). Once the ring is
// closed and drained, PopBatch returns ErrClosed.
func (r *Ring) PopBatch(dst []*message.Msg) (int, error) { return r.popBatch(dst, false) }

func (r *Ring) popBatch(dst []*message.Msg, hold bool) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.data.length+r.ctrl.length == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if r.data.length+r.ctrl.length == 0 {
		return 0, ErrClosed
	}
	if hold {
		r.held = true
	}
	return r.popBatchLocked(dst), nil
}

// PopBatchHold is PopBatch for a consumer that forwards what it pops and
// wants the producer to be able to tell: in the same critical section as
// the pop the ring records that the consumer holds a batch, and stays that
// way until Unhold. Between the two the ring can be empty without being
// Idle — the messages are out of the ring and not yet wherever they go.
func (r *Ring) PopBatchHold(dst []*message.Msg) (int, error) { return r.popBatch(dst, true) }

// Unhold ends the hold PopBatchHold took: the consumer has disposed of
// everything it popped.
func (r *Ring) Unhold() {
	r.mu.Lock()
	r.held = false
	r.mu.Unlock()
}

// Idle reports whether the ring is open, nothing is queued in either lane
// and no PopBatchHold consumer still holds what it popped — one fact, read
// under one lock. For the ring's single producer a true answer stays true
// until its own next push: only a push can give the consumer something to
// take. A closed ring is never idle: it is being torn down, and whoever
// asks should meet its refusals rather than go around it.
func (r *Ring) Idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.closed && r.data.length+r.ctrl.length == 0 && !r.held
}

// TryPopBatch removes up to len(dst) of the oldest messages into dst —
// control lane first — without blocking and reports how many were popped;
// zero when the ring is empty.
func (r *Ring) TryPopBatch(dst []*message.Msg) int {
	if len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.popBatchLocked(dst)
}

// popBatchLocked moves up to len(dst) messages out of the ring, control
// before data, and wakes each lane's producers once for the transfer.
func (r *Ring) popBatchLocked(dst []*message.Msg) int {
	now := time.Now()
	n := 0
	fromCtrl := 0
	for r.ctrl.length > 0 && n < len(dst) {
		dst[n] = r.ctrl.pop(now)
		n++
		fromCtrl++
	}
	fromData := 0
	for r.data.length > 0 && n < len(dst) {
		dst[n] = r.data.pop(now)
		n++
		fromData++
	}
	r.wakeProducers(&r.ctrlNotFull, fromCtrl)
	r.wakeProducers(&r.dataNotFull, fromData)
	return n
}

func (r *Ring) wakeProducers(c *sync.Cond, n int) {
	switch {
	case n == 1:
		c.Signal()
	case n > 1:
		c.Broadcast()
	}
}

// Close marks the ring closed, waking all blocked producers and consumers.
// Buffered messages may still be drained with Pop/TryPop. Close is
// idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.dataNotFull.Broadcast()
	r.ctrlNotFull.Broadcast()
	r.notEmpty.Broadcast()
}

// Closed reports whether Close has been called.
func (r *Ring) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Drain removes and releases every buffered message in both lanes; the
// engine uses it when tearing down a link so that no payload buffers leak.
// It returns the wire bytes of what it released.
func (r *Ring) Drain() (bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	for r.ctrl.length > 0 {
		m := r.ctrl.pop(now)
		bytes += int64(m.WireLen())
		m.Release()
	}
	for r.data.length > 0 {
		m := r.data.pop(now)
		bytes += int64(m.WireLen())
		m.Release()
	}
	if bytes > 0 {
		r.ctrlNotFull.Broadcast()
		r.dataNotFull.Broadcast()
	}
	return bytes
}
