// Package bandwidth implements the paper's emulation of bandwidth
// availability: token-bucket limiters that wrap socket send and receive
// paths in order to precisely control the bandwidth used per interval.
// Three categories are supported, exactly as in the paper: per-node total
// bandwidth, per-node incoming/outgoing (asymmetric) bandwidth, and
// per-link bandwidth. Rates are settable at start-up and tunable at
// runtime (from the observer), so artificial bottlenecks may be produced
// or relieved on the fly.
package bandwidth

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Unlimited disables shaping when used as a rate.
const Unlimited int64 = 0

// DefaultBurstWindow sizes each bucket: a limiter may burst at most
// rate × window bytes, keeping emulated throughput smooth at small
// timescales while remaining accurate over measurement intervals.
const DefaultBurstWindow = 50 * time.Millisecond

// Limiter is a token-bucket rate limiter measured in bytes per second. A
// zero or negative rate means unlimited. Limiters are safe for concurrent
// use; several connections may share one limiter to model a shared budget
// (for example a node's uplink shared by all its outgoing links). The zero
// value is not usable: Init builds a limiter in place — a link's sender
// keeps its per-link limiter by value — and a limiter must not be copied
// after Init.
type Limiter struct {
	// active mirrors rate > 0 and lets the hot data path skip the mutex
	// entirely for unlimited limiters — every shaped byte would otherwise
	// pay three lock round-trips (link, direction, total) just to learn
	// that no shaping is configured.
	active atomic.Bool

	mu     sync.Mutex
	rate   int64 // bytes/sec; <=0 means unlimited
	burst  time.Duration
	tokens float64
	last   time.Time
	closed bool
	wake   sync.Cond
}

// Init makes l a limiter at the given rate in bytes per second.
func (l *Limiter) Init(rate int64) {
	l.rate, l.burst, l.last = rate, DefaultBurstWindow, time.Now()
	l.active.Store(rate > 0)
	l.wake.L = &l.mu
}

// NewLimiter returns a limiter built by Init, for holders that share one by
// pointer: a node's budget, a local source, and the benchmark's micro rows.
func NewLimiter(rate int64) *Limiter {
	l := new(Limiter)
	l.Init(rate)
	return l
}

// Rate reports the configured rate; Unlimited when shaping is off.
func (l *Limiter) Rate() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// SetRate retunes the limiter, waking any blocked waiters so the new rate
// takes effect immediately — this is what lets the observer relieve or
// impose bottlenecks at runtime.
func (l *Limiter) SetRate(rate int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked(time.Now())
	l.rate = rate
	l.active.Store(rate > 0)
	cap := l.capLocked()
	if cap > 0 && l.tokens > cap {
		l.tokens = cap
	}
	l.wake.Broadcast()
}

// Close releases all waiters; subsequent Waits return immediately. Used
// during engine teardown so shaped senders cannot hang shutdown.
func (l *Limiter) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.wake.Broadcast()
}

func (l *Limiter) capLocked() float64 {
	if l.rate <= 0 {
		return 0
	}
	c := float64(l.rate) * l.burst.Seconds()
	if c < 1 {
		c = 1
	}
	return c
}

func (l *Limiter) refillLocked(now time.Time) {
	if l.rate <= 0 {
		l.last = now
		return
	}
	elapsed := now.Sub(l.last).Seconds()
	if elapsed <= 0 {
		return
	}
	l.tokens += elapsed * float64(l.rate)
	if cap := l.capLocked(); l.tokens > cap {
		l.tokens = cap
	}
	l.last = now
}

// Wait blocks until n bytes of budget are available and consumes them.
// Requests larger than the bucket capacity are admitted in installments,
// so arbitrarily large writes still respect the long-run rate. Wait
// returns immediately when the limiter is unlimited or closed.
func (l *Limiter) Wait(n int) {
	if n <= 0 || !l.active.Load() {
		return
	}
	remaining := float64(n)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed || l.rate <= 0 {
			return
		}
		l.refillLocked(time.Now())
		if l.tokens > 0 {
			take := l.tokens
			if take > remaining {
				take = remaining
			}
			l.tokens -= take
			remaining -= take
			if remaining <= 0 {
				return
			}
		}
		// Sleep until enough tokens should have accumulated, but stay
		// responsive to SetRate/Close broadcasts.
		need := remaining
		if cap := l.capLocked(); need > cap {
			need = cap
		}
		wait := time.Duration(need / float64(l.rate) * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		l.sleepLocked(wait)
	}
}

// sleepLocked releases the lock for at most d, waking early on broadcast.
func (l *Limiter) sleepLocked(d time.Duration) {
	timer := time.AfterFunc(d, func() {
		l.mu.Lock()
		l.wake.Broadcast()
		l.mu.Unlock()
	})
	l.wake.Wait()
	timer.Stop()
}

// Shaper applies an ordered set of limiters to a byte stream. The paper
// stacks per-link, per-node-direction, and per-node-total budgets on each
// socket; a Shaper composes them, consuming from every limiter for each
// chunk transferred. It is a small value — at most those three limiters —
// held by whatever it shapes.
type Shaper struct {
	limits [maxLimits]*Limiter
	n      int
}

// maxLimits is the most limiters a Shaper composes: link, direction, total.
const maxLimits = 3

// NewShaper composes up to three limiters; nil entries are skipped.
func NewShaper(limits ...*Limiter) Shaper {
	var s Shaper
	for _, l := range limits {
		if l != nil {
			s.limits[s.n] = l
			s.n++
		}
	}
	return s
}

// Wait consumes n bytes of budget from every composed limiter.
func (s *Shaper) Wait(n int) {
	for _, l := range s.limits[:s.n] {
		l.Wait(n)
	}
}

// Active reports whether any composed limiter currently shapes traffic.
// Rates are runtime-tunable, so callers must re-check per transfer rather
// than caching the answer.
func (s *Shaper) Active() bool {
	for _, l := range s.limits[:s.n] {
		if l.active.Load() {
			return true
		}
	}
	return false
}

// maxChunk bounds how many bytes pass a shaped writer per budget request,
// so large messages are paced rather than admitted in one burst.
const maxChunk = 4 << 10

// Writer shapes writes to an underlying writer.
type Writer struct {
	w io.Writer
	s *Shaper
}

// NewWriter wraps w with the shaper. A nil shaper passes through. The
// writer is a value: its holder keeps it and writes through its address.
func NewWriter(w io.Writer, s *Shaper) Writer { return Writer{w: w, s: s} }

// Write pushes b through the shaper in paced chunks. When no composed
// limiter is active the write passes through whole, with no chunking and
// no budget bookkeeping.
func (sw *Writer) Write(b []byte) (int, error) {
	if sw.s == nil || !sw.s.Active() {
		return sw.w.Write(b)
	}
	written := 0
	for len(b) > 0 {
		n := len(b)
		if n > maxChunk {
			n = maxChunk
		}
		sw.s.Wait(n)
		m, err := sw.w.Write(b[:n])
		written += m
		if err != nil {
			return written, err
		}
		b = b[n:]
	}
	return written, nil
}

// Reader shapes reads from an underlying reader, modeling download-side
// (incoming) bandwidth caps.
type Reader struct {
	r io.Reader
	s *Shaper
}

// NewReader wraps r with the shaper. A nil shaper passes through. The
// reader is a value: its holder keeps it and reads through its address.
func NewReader(r io.Reader, s *Shaper) Reader { return Reader{r: r, s: s} }

// Read fills b at the shaped rate. When no composed limiter is active the
// read passes through whole — in particular it is not clamped to maxChunk,
// so unshaped receivers refill their buffers with large reads.
func (sr *Reader) Read(b []byte) (int, error) {
	if sr.s == nil || !sr.s.Active() {
		return sr.r.Read(b)
	}
	if len(b) > maxChunk {
		b = b[:maxChunk]
	}
	n, err := sr.r.Read(b)
	if n > 0 {
		sr.s.Wait(n)
	}
	return n, err
}

// NodeBudget groups one overlay node's emulated bandwidth: total, uplink
// (outgoing) and downlink (incoming). Any may be Unlimited. All outgoing
// sockets of the node share Up and Total; all incoming sockets share Down
// and Total, so competing links divide the node budget as on a real
// last-mile access link.
type NodeBudget struct {
	Total *Limiter
	Up    *Limiter
	Down  *Limiter
}

// NewNodeBudget builds a budget with the given rates in bytes per second.
func NewNodeBudget(total, up, down int64) *NodeBudget {
	return &NodeBudget{
		Total: NewLimiter(total),
		Up:    NewLimiter(up),
		Down:  NewLimiter(down),
	}
}

// UpShaper composes the node's outgoing budget with a per-link limiter.
func (b *NodeBudget) UpShaper(link *Limiter) Shaper {
	return NewShaper(link, b.Up, b.Total)
}

// DownShaper composes the node's incoming budget. Incoming links carry no
// cap of their own, so one down shaper serves every receiver of the node.
func (b *NodeBudget) DownShaper() Shaper {
	return NewShaper(b.Down, b.Total)
}

// Close releases all three limiters.
func (b *NodeBudget) Close() {
	b.Total.Close()
	b.Up.Close()
	b.Down.Close()
}
