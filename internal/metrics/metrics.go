// Package metrics implements the QoS measurement facilities the paper
// attaches at the socket level: per-connection throughput, queueing and
// batch distributions, and counters of bytes or messages lost due to
// failures. Results are sampled periodically by the engine and reported
// to the algorithm and the observer.
package metrics

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Meter measures throughput in bytes per second over a sliding window of
// fixed-width buckets. It is safe for concurrent use: the transport
// goroutine Adds while the engine goroutine samples Rate. The zero value
// is not usable: Init builds a meter in place, inside whatever holds it —
// a link's sender or receiver keeps its meter by value, buckets and all.
// A meter must not be copied after Init.
type Meter struct {
	mu         sync.Mutex
	bucketSize time.Duration
	buckets    [meterBuckets]int64
	times      [meterBuckets]time.Time
	head       int
	total      int64 // lifetime bytes
	start      time.Time
}

// DefaultWindow is the sliding measurement window of every meter.
const DefaultWindow = 2 * time.Second

// meterBuckets subdivides the window; more buckets smooth the estimate.
const meterBuckets = 20

// Init makes m an empty meter over DefaultWindow, starting its lifetime
// clock.
func (m *Meter) Init() {
	m.bucketSize = DefaultWindow / meterBuckets
	m.start = time.Now()
}

// Add records n bytes transferred now.
func (m *Meter) Add(n int64) { m.addAt(time.Now(), n) }

// addAt is Add with an explicit clock so the bucket-advance logic is
// testable without real sleeps.
func (m *Meter) addAt(now time.Time, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += n
	cur := m.times[m.head]
	switch {
	case cur.IsZero():
		m.times[m.head] = now
	case now.Sub(cur) >= m.bucketSize:
		// Advance one slot per elapsed bucket interval, clearing each:
		// idle intervals become explicit zero-byte buckets so Rate's
		// span reflects the gap instead of stale counts lingering under
		// old timestamps. A gap spanning the whole window re-anchors
		// the grid at now and clears every bucket.
		steps := int(now.Sub(cur) / m.bucketSize)
		if steps > len(m.buckets) {
			steps = len(m.buckets)
			cur = now.Add(-time.Duration(steps) * m.bucketSize)
		}
		for i := 1; i <= steps; i++ {
			m.head = (m.head + 1) % len(m.buckets)
			m.buckets[m.head] = 0
			m.times[m.head] = cur.Add(time.Duration(i) * m.bucketSize)
		}
	}
	m.buckets[m.head] += n
}

// Rate reports the current throughput estimate in bytes per second over
// the populated portion of the window.
func (m *Meter) Rate() float64 { return m.rateAt(time.Now()) }

// rateAt is Rate with an explicit clock, for deterministic tests.
func (m *Meter) rateAt(now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	window := m.bucketSize * time.Duration(len(m.buckets))
	cutoff := now.Add(-window)
	var sum int64
	oldest := now
	for i, ts := range &m.times {
		if ts.IsZero() || ts.Before(cutoff) {
			continue
		}
		sum += m.buckets[i]
		if ts.Before(oldest) {
			oldest = ts
		}
	}
	span := now.Sub(oldest)
	if span < m.bucketSize {
		span = m.bucketSize
	}
	return float64(sum) / span.Seconds()
}

// Total reports lifetime bytes recorded.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Idle reports how long the meter has gone without traffic; the engine's
// inactivity-based failure detector consults this (the paper detects
// failures partly by "long consecutive periods of traffic inactivity").
func (m *Meter) Idle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var latest time.Time
	for _, ts := range &m.times {
		if ts.After(latest) {
			latest = ts
		}
	}
	if latest.IsZero() {
		return time.Since(m.start)
	}
	return time.Since(latest)
}

// Gauge is an atomic byte-count gauge with a high-water mark; the engine
// uses one to track its total buffered bytes.
// All methods are safe for concurrent use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by n (negative to release) and returns the new
// value, folding positive movements into the high-water mark.
func (g *Gauge) Add(n int64) int64 {
	v := g.v.Add(n)
	if n > 0 {
		g.raise(v)
	}
	return v
}

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load reports the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max reports the highest value the gauge ever reached.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Counters aggregates the loss and volume statistics the engine reports
// per link. All methods are safe for concurrent use.
type Counters struct {
	mu           sync.Mutex
	msgsIn       int64
	msgsOut      int64
	bytesIn      int64
	bytesOut     int64
	msgsDropped  int64
	bytesDropped int64
	failovers    int64
	connsShed    int64
	hsFailed     int64
	acceptRetry  int64
	dgramBad     int64
	dgramNoLink  int64
	dgramRefused int64
}

// CountersSnapshot is an immutable copy of Counters.
type CountersSnapshot struct {
	MsgsIn, MsgsOut   int64
	BytesIn, BytesOut int64
	MsgsDropped       int64
	BytesDropped      int64
	// MsgsShed is always zero: the shedding it counted is gone, and the
	// field stays only because bench/ compiles against it.
	MsgsShed int64
	// Failovers counts successful observer failovers: re-registrations
	// with a different observer after the previous link was lost.
	Failovers int64
	// ConnsShed counts inbound connections refused before a handshake
	// was attempted (token exhaustion, rate limit or greylist).
	ConnsShed int64
	// HandshakesFailed counts admitted connections whose handshake then
	// died: bad hello, handshake timeout, or a peer that hung up.
	HandshakesFailed int64
	// AcceptRetries counts transient listener Accept errors survived by
	// backing off and retrying instead of abandoning the listener.
	AcceptRetries int64
	// DgramBad counts received datagrams refused before reassembly — a
	// malformed frame, an oversize declared payload, or a completed image
	// that was not exactly one message.
	DgramBad int64
	// DgramNoLink counts datagrams dropped because their link-level
	// source never completed a hello handshake on the control lane.
	DgramNoLink int64
	// DgramRefused counts outgoing messages refused at the sender because
	// their wire image exceeds the fragment budget at the configured MTU.
	DgramRefused int64
	// The share of traffic that takes each of the engine's fast paths, in
	// messages; Counters itself leaves them zero and engine.Counters fills
	// them from its own atomics. SwitchedInline were switched by the
	// receiver goroutine that decoded them, SwitchedViaRing crossed a
	// receiver (or local-source) ring to the engine goroutine;
	// WrittenInline were written by the turn that switched them,
	// WrittenBySender crossed a sender ring to the link's goroutine.
	SwitchedInline, SwitchedViaRing uint64
	WrittenInline, WrittenBySender  uint64
}

// AddIn records msgs received messages totalling n bytes in one update —
// the batched receive paths fold a whole burst into a single counter
// acquisition. The message count is explicit on purpose: a bytes-only
// form once let a batch be counted as one message.
func (c *Counters) AddIn(msgs, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgsIn += msgs
	c.bytesIn += n
}

// AddOut records msgs sent messages totalling n bytes in one update.
func (c *Counters) AddOut(msgs, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgsOut += msgs
	c.bytesOut += n
}

// AddDroppedBatch records msgs messages totalling n bytes lost to one
// failure in a single update.
func (c *Counters) AddDroppedBatch(msgs, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgsDropped += msgs
	c.bytesDropped += n
}

// AddDropped records a message of n bytes lost to a failure, the paper's
// "number of bytes (or messages) lost due to failures".
func (c *Counters) AddDropped(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgsDropped++
	c.bytesDropped += n
}

// AddFailover records one successful observer failover.
func (c *Counters) AddFailover() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failovers++
}

// AddConnShed records one inbound connection refused before a handshake.
func (c *Counters) AddConnShed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connsShed++
}

// AddHandshakeFailed records an admitted connection whose handshake died.
func (c *Counters) AddHandshakeFailed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hsFailed++
}

// AddAcceptRetry records one transient listener Accept error survived.
func (c *Counters) AddAcceptRetry() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acceptRetry++
}

// AddDgramBad records one received datagram refused before reassembly.
func (c *Counters) AddDgramBad() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dgramBad++
}

// AddDgramNoLink records one datagram dropped for lacking an
// established link.
func (c *Counters) AddDgramNoLink() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dgramNoLink++
}

// AddDgramRefused records an outgoing message of n bytes refused at the
// sender for exceeding the datagram fragment budget. The message never
// reaches the wire, so it is loss too.
func (c *Counters) AddDgramRefused(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dgramRefused++
	c.msgsDropped++
	c.bytesDropped += n
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CountersSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CountersSnapshot{
		MsgsIn: c.msgsIn, MsgsOut: c.msgsOut,
		BytesIn: c.bytesIn, BytesOut: c.bytesOut,
		MsgsDropped: c.msgsDropped, BytesDropped: c.bytesDropped,
		Failovers: c.failovers, ConnsShed: c.connsShed,
		HandshakesFailed: c.hsFailed, AcceptRetries: c.acceptRetry,
		DgramBad: c.dgramBad, DgramNoLink: c.dgramNoLink,
		DgramRefused: c.dgramRefused,
	}
}

// HistogramBuckets is the number of power-of-two buckets a Histogram
// tracks. Bucket i counts observations v with floor(log2(v)) == i
// (v < 1 lands in bucket 0, v >= 2^47 in the last bucket), so the range
// covers 1ns..~39h when observing durations in nanoseconds and any
// realistic batch size when observing counts.
const HistogramBuckets = 48

// Histogram is a lock-free log-scale histogram: one atomic counter per
// power-of-two bucket. Observe is a single atomic add, cheap enough for
// the data path; Snapshot copies the counters for reporting. The zero
// value is ready to use, and a nil Histogram ignores observations.
type Histogram struct {
	counts [HistogramBuckets]atomic.Uint64
}

// histBucket maps an observation to its bucket index.
func histBucket(v int64) int {
	if v < 1 {
		return 0
	}
	b := 0
	for u := uint64(v); u > 1; u >>= 1 {
		b++
	}
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	return b
}

// Observe folds one sample in. Safe from any goroutine; no-op on nil.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN folds n samples of the same value in with one atomic add.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if h == nil {
		return
	}
	h.counts[histBucket(v)].Add(n)
}

// Snapshot copies the bucket counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram, and also the
// form histograms travel in over the wire (protocol.Report encodes the
// non-empty buckets sparsely).
type HistogramSnapshot struct {
	Counts [HistogramBuckets]uint64
}

// Count reports the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Merge adds another snapshot's counts into this one.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
}

// Sub subtracts an earlier snapshot of the same histogram, yielding the
// observations made between the two snapshots.
func (s *HistogramSnapshot) Sub(earlier HistogramSnapshot) {
	for i, c := range earlier.Counts {
		s.Counts[i] -= c
	}
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i)
}

// Quantile reports an upper bound for the q-quantile (q in [0,1]): the
// exclusive upper edge of the first bucket at which the cumulative count
// reaches q of the total. Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(q * float64(total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= need {
			return 2 << uint(i) // exclusive upper edge: 2^(i+1)
		}
	}
	return 2 << uint(HistogramBuckets-1)
}

// String renders the non-empty buckets compactly, e.g. "[8:3 16:41]"
// where the key is each bucket's lower bound.
func (s HistogramSnapshot) String() string {
	var b []byte
	b = append(b, '[')
	first := true
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if !first {
			b = append(b, ' ')
		}
		first = false
		b = strconv.AppendInt(b, BucketLow(i), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, c, 10)
	}
	return string(append(b, ']'))
}
