package vnet

import (
	"errors"
	"io"
	"sync"
	"time"
)

// errTimeout satisfies net.Error for deadline expiry.
type errTimeout struct{}

func (errTimeout) Error() string   { return "vnet: i/o timeout" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }

// ErrPipeClosed is returned by operations on a closed pipe endpoint.
var ErrPipeClosed = errors.New("vnet: pipe closed")

// watermark records that all bytes up to total become readable at `at`,
// implementing one-way propagation latency.
type watermark struct {
	total int64
	at    time.Time
}

// pipe is a bounded, single-direction byte stream between two endpoints of
// a virtual connection. Its bound is what yields TCP-like back-pressure:
// writers block when the reader side falls behind, exactly the property
// the paper's engine relies on for the back-pressure effect of small
// buffers. The bound is capacity, not the buffer: the buffer starts empty
// and grows as bytes queue, so a link that only ever carries a handshake
// never pays for a full socket buffer.
type pipe struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	// Waiter counts gate every condvar broadcast: the data path signals a
	// pipe far more often than anyone sleeps on it, and an ungated
	// Broadcast per transfer thrashes futexes. A waiter increments its
	// count under mu before sleeping, so gated wakeups can never be lost.
	readWaiters  int
	writeWaiters int

	capacity int    // the most bytes the pipe holds; writers block beyond it
	buf      []byte // ring of buffered bytes, grown by copyIn up to capacity
	head     int
	length   int
	// first is buf until the bytes queued outgrow it: a hello or a Welcome
	// fits in it many times over, so a link that carries only a handshake,
	// or a trickle, never allocates a buffer.
	first [minPipeBuf]byte

	// latency, when positive, delays the visibility of written bytes.
	latency      time.Duration
	totalWritten int64
	totalRead    int64
	marks        []watermark

	readDeadline  time.Time
	writeDeadline time.Time

	// Fault injection (Network.Flaky). dropFn, when set, decides per
	// Write call (and per buffer in writeBuffers) whether that frame is
	// silently black-holed; callers must therefore write whole frames per
	// call, which the engine's data path does. stallUntil, when in the
	// future, hides buffered bytes from the reader without closing the
	// pipe — the link looks alive but idle, exactly the case the engine's
	// inactivity detector exists for.
	dropFn     func(n int) bool
	stallUntil time.Time

	writeClosed bool // no more writes; reads drain then EOF
	broken      bool // hard failure: reads and writes error immediately
}

// init makes p an empty pipe in place, writing into its first buffer.
func (p *pipe) init(capacity int, latency time.Duration) {
	p.capacity, p.latency = capacity, latency
	p.buf = p.first[:min(len(p.first), capacity)]
	p.notFull.L = &p.mu
	p.notEmpty.L = &p.mu
}

// arrivedLocked reports how many buffered bytes have propagated (their
// latency elapsed) and, when some have not, when the next batch lands.
func (p *pipe) arrivedLocked(now time.Time) (avail int, next time.Time) {
	if p.latency <= 0 {
		return p.length, time.Time{}
	}
	arrived := p.totalRead // at least everything already consumed
	for _, m := range p.marks {
		if m.at.After(now) {
			next = m.at
			break
		}
		arrived = m.total
	}
	// Drop fully-consumed watermarks.
	for len(p.marks) > 0 && p.marks[0].total <= p.totalRead {
		p.marks = p.marks[1:]
	}
	a := arrived - p.totalRead
	if a < 0 {
		a = 0
	}
	if int(a) > p.length {
		return p.length, next
	}
	return int(a), next
}

// wakeReadersLocked wakes blocked readers, if any.
func (p *pipe) wakeReadersLocked() {
	if p.readWaiters > 0 {
		p.notEmpty.Broadcast()
	}
}

// wakeWritersLocked wakes blocked writers, if any.
func (p *pipe) wakeWritersLocked() {
	if p.writeWaiters > 0 {
		p.notFull.Broadcast()
	}
}

// waitLocked sleeps on c, counted in *waiters, until c is signalled or,
// when wake is set, until wake has passed. Callers pass the deadline in
// force as they go to sleep and re-read it when they wake: setting a
// deadline wakes the waiters, so one set under a blocked call is honoured,
// and a call that never waits never arms a timer.
func (p *pipe) waitLocked(c *sync.Cond, waiters *int, wake time.Time) {
	var t *time.Timer
	if !wake.IsZero() {
		t = time.AfterFunc(time.Until(wake), func() {
			p.mu.Lock()
			c.Broadcast()
			p.mu.Unlock()
		})
	}
	*waiters++
	c.Wait()
	*waiters--
	if t != nil {
		t.Stop()
	}
}

// Write is writeBuffers of one buffer.
func (p *pipe) Write(b []byte) (int, error) {
	bufs := [1][]byte{b}
	n, err := p.writeBuffers(bufs[:])
	return int(n), err
}

// writeBuffers appends the concatenation of bufs, blocking while full
// exactly like sequential Writes but under a single lock acquisition —
// the vectored fast path that lets a sender flush a whole message batch
// in one pipe operation. Readers are woken once for the call, and once
// before each wait inside it so a full pipe still drains: a broadcast per
// buffer would be up to a batch's worth of futex calls under the lock the
// reader needs.
func (p *pipe) writeBuffers(bufs [][]byte) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.wakeReadersLocked()

	var written int64
	for _, b := range bufs {
		if p.dropFn != nil && !p.broken && !p.writeClosed && p.dropFn(len(b)) {
			// Each buffer is one complete wire image on the engine's
			// batch path, so per-buffer drops preserve framing.
			written += int64(len(b))
			continue
		}
		for len(b) > 0 {
			for p.length == p.capacity && !p.writeClosed && !p.broken && !expired(p.writeDeadline) {
				p.wakeReadersLocked()
				p.waitLocked(&p.notFull, &p.writeWaiters, p.writeDeadline)
			}
			if p.broken || p.writeClosed {
				return written, ErrPipeClosed
			}
			if expired(p.writeDeadline) {
				return written, errTimeout{}
			}
			n := p.copyIn(b)
			b = b[n:]
			written += int64(n)
			p.markWrittenLocked(n)
		}
	}
	return written, nil
}

// tryWriteBuffers appends the leading buffers of bufs that fit whole right
// now and reports how many it took and their bytes. It never waits and
// never takes part of a buffer, so a caller that writes one frame per
// buffer can hand the rest to a blocking writer without splitting a frame
// between the two. While a blocking write is parked on a full pipe — it
// may be halfway through a frame — nothing is taken at all. Drops and
// latency marks are per buffer, as in writeBuffers; the write deadline
// does not apply to a call that cannot wait.
func (p *pipe) tryWriteBuffers(bufs [][]byte) (frames int, bytes int64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken || p.writeClosed {
		return 0, 0, ErrPipeClosed
	}
	if p.writeWaiters > 0 {
		return 0, 0, nil
	}
	for _, b := range bufs {
		// A black-holed frame counts as taken and needs no room.
		if p.dropFn == nil || !p.dropFn(len(b)) {
			if len(b) > p.capacity-p.length {
				break
			}
			p.copyIn(b)
			p.markWrittenLocked(len(b))
		}
		frames++
		bytes += int64(len(b))
	}
	if frames > 0 {
		p.wakeReadersLocked()
	}
	return frames, bytes, nil
}

// markWrittenLocked accounts n bytes just copied in and, on a pipe with
// latency, records when they become readable.
func (p *pipe) markWrittenLocked(n int) {
	p.totalWritten += int64(n)
	if p.latency > 0 {
		p.marks = append(p.marks, watermark{
			total: p.totalWritten,
			at:    time.Now().Add(p.latency),
		})
	}
}

// minPipeBuf is the size of a pipe's first buffer, the one inside the
// pipe, from which a grown buffer doubles.
const minPipeBuf = 512

// copyIn appends as much of b as the capacity leaves room for and reports
// how many bytes it took, first growing the buffer when they do not fit.
func (p *pipe) copyIn(b []byte) int {
	n := min(len(b), p.capacity-p.length)
	if n == 0 {
		return 0
	}
	if p.length+n > len(p.buf) {
		p.growLocked(p.length + n)
	}
	tail := (p.head + p.length) % len(p.buf)
	first := copy(p.buf[tail:], b[:n])
	if first < n {
		copy(p.buf, b[first:n])
	}
	p.length += n
	return n
}

// growLocked replaces the buffer with one that holds at least need bytes:
// the old size doubled, from minPipeBuf, as often as need takes, but never
// more than capacity. The buffered bytes move to the front of the new
// ring, in order.
func (p *pipe) growLocked(need int) {
	size := max(len(p.buf), minPipeBuf)
	for size < need {
		size *= 2
	}
	buf := make([]byte, min(size, p.capacity))
	first := copy(buf, p.buf[p.head:min(p.head+p.length, len(p.buf))])
	copy(buf[first:p.length], p.buf)
	p.buf, p.head = buf, 0
}

func (p *pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	for {
		if p.broken {
			return 0, ErrPipeClosed
		}
		avail, next := p.length, time.Time{}
		if p.latency > 0 { // zero-latency pipes skip the clock entirely
			avail, next = p.arrivedLocked(time.Now())
		}
		if !p.stallUntil.IsZero() {
			if now := time.Now(); now.Before(p.stallUntil) {
				// Stalled link: bytes are buffered but none are
				// readable until the stall window passes.
				avail = 0
				if next.IsZero() || p.stallUntil.Before(next) {
					next = p.stallUntil
				}
			} else {
				p.stallUntil = time.Time{}
			}
		}
		if avail > 0 {
			n := len(b)
			if n > avail {
				n = avail
			}
			first := copy(b[:n], p.buf[p.head:min(p.head+n, len(p.buf))])
			if first < n {
				copy(b[first:n], p.buf)
			}
			p.head = (p.head + n) % len(p.buf)
			p.length -= n
			p.totalRead += int64(n)
			p.wakeWritersLocked()
			return n, nil
		}
		if p.length == 0 && p.writeClosed {
			return 0, io.EOF
		}
		if expired(p.readDeadline) {
			return 0, errTimeout{}
		}
		// Wake for whichever comes first: the deadline, or bytes in flight
		// (or a stall window) landing.
		wake := p.readDeadline
		if wake.IsZero() || (!next.IsZero() && next.Before(wake)) {
			wake = next
		}
		p.waitLocked(&p.notEmpty, &p.readWaiters, wake)
	}
}

// closeWrite marks the writer side done: pending bytes remain readable and
// the reader then sees io.EOF. Used for graceful connection close.
func (p *pipe) closeWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeClosed = true
	p.wakeWritersLocked()
	p.wakeReadersLocked()
}

// breakPipe simulates an abrupt failure (node crash, severed link):
// buffered data is discarded and both ends error immediately.
func (p *pipe) breakPipe() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.broken = true
	p.length = 0
	p.wakeWritersLocked()
	p.wakeReadersLocked()
}

// setFault installs or clears (nil, zero) fault-injection state. Waking
// both sides lets a blocked reader re-evaluate a newly installed or
// lifted stall window immediately.
func (p *pipe) setFault(dropFn func(n int) bool, stallUntil time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropFn = dropFn
	p.stallUntil = stallUntil
	p.wakeReadersLocked()
	p.wakeWritersLocked()
}

func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readDeadline = t
	p.wakeReadersLocked()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeDeadline = t
	p.wakeWritersLocked()
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}
