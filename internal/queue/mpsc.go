package queue

import "sync/atomic"

// MPSC is a bounded lock-free multi-producer single-consumer ring. Any
// number of goroutines may TryPush concurrently; exactly one may TryPop.
// Nothing in the engine uses it: the repository benchmark's
// queue.mpsc_ns row compiles against it, and it goes when that row does.
//
// The implementation is the classic bounded-ring design with a per-slot
// sequence number: a producer claims a slot by CAS on the tail cursor,
// writes the value, and publishes it by storing the slot's sequence last
// (release ordering); the consumer observes the sequence (acquire), reads
// the value, and recycles the slot one lap ahead. Per-producer FIFO order
// is preserved — claims are ordered by the tail CAS and the consumer reads
// slots in claim order.
type MPSC[T any] struct {
	mask  uint64
	slots []mpscSlot[T]
	tail  atomic.Uint64 // next slot to claim (producers)
	head  atomic.Uint64 // next slot to consume (consumer-only writer)
}

type mpscSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// NewMPSC returns a ring holding at most capacity items, rounded up to a
// power of two; values < 2 are rounded to 2.
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &MPSC[T]{mask: uint64(n - 1), slots: make([]mpscSlot[T], n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap reports the fixed capacity.
func (q *MPSC[T]) Cap() int { return len(q.slots) }

// Len reports the approximate number of queued items. Exact when no
// producer is mid-push; safe from any goroutine.
func (q *MPSC[T]) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// TryPush appends v, returning false when the ring is full. Safe from any
// goroutine; never blocks.
func (q *MPSC[T]) TryPush(v T) bool {
	for {
		pos := q.tail.Load()
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				slot.val = v
				slot.seq.Store(pos + 1) // publish
				return true
			}
		case seq < pos:
			// The slot still holds an unconsumed item from one lap ago:
			// the ring is full.
			return false
		}
		// seq > pos: another producer advanced tail past our stale read;
		// retry with a fresh cursor.
	}
}

// TryPop removes the oldest item. Single consumer only; never blocks.
func (q *MPSC[T]) TryPop() (T, bool) {
	var zero T
	pos := q.head.Load()
	slot := &q.slots[pos&q.mask]
	if slot.seq.Load() != pos+1 {
		// Empty, or a producer claimed the slot but has not published yet —
		// either way there is nothing consumable right now.
		return zero, false
	}
	v := slot.val
	slot.val = zero
	slot.seq.Store(pos + q.mask + 1) // recycle for the producers' next lap
	q.head.Store(pos + 1)
	return v, true
}
