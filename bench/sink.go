package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
)

// epoch anchors the benchmark clock: every stamp, span and latency is
// nanoseconds since it, read from the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// sampleEvery thins span recording on the data workloads to about one
// message in 64. It is prime so the sampled sequence numbers walk through
// every position of the engine's 32-message batches instead of always
// hitting the first.
const sampleEvery = 61

func sampled(seq uint32) bool { return seq%sampleEvery == 0 }

// maxLatNs caps a recorded latency so it fits the uint32 sample arrays.
const maxLatNs = int64(^uint32(0))

// sink is the benchmark-owned terminal algorithm: it consumes every data
// message, verifies it, and records when it arrived. Process runs on the
// node's engine goroutine; the measuring goroutine reads through the
// mutex.
type sink struct {
	payload int
	stamped bool // payload carries due time + checksum
	ordered bool // a gap, duplicate or reorder is a failure (stream lanes)
	crc     uint32

	firstNs atomic.Int64 // benchmark clock of the first verified delivery
	high    atomic.Int64 // unordered: one past the highest sequence number seen
	box     *mailbox     // link_churn: wakes the client waiting on this leaf

	mu      sync.Mutex
	next    uint32   // ordered: the sequence number expected next
	seen    []uint64 // unordered: bitmap of delivered sequence numbers
	from    uint32   // unordered: first sequence number of the verified range
	inRange int64    // unordered: distinct deliveries at or past from
	msgs    int64    // verified deliveries
	bytes   int64    // their payload bytes
	gaps    int64    // ordered: sequence numbers skipped
	stale   int64    // ordered: arrivals below next (duplicate or reorder)
	dups    int64    // unordered: sequence number delivered twice
	corrupt int64    // wrong length or checksum
	lat     []uint32 // latency samples in ns, appended in arrival order
	latLost int64    // samples dropped because lat was full
}

var _ engine.Algorithm = (*sink)(nil)

func newSink(s spec, f fill, stamped bool) *sink {
	sk := &sink{
		payload: s.payload,
		stamped: stamped,
		ordered: !s.dgram,
		crc:     f.crc,
	}
	if s.shape == hubShape {
		sk.box = newMailbox()
	}
	return sk
}

// Attach is a no-op: a sink never calls back into the engine.
func (s *sink) Attach(engine.API) {}

// Process consumes and verifies one message.
func (s *sink) Process(m *message.Msg) engine.Verdict {
	if !m.IsData() {
		return engine.Done
	}
	seq := m.Seq()
	p := m.Payload()
	ok := len(p) == s.payload
	lat := int64(-1)
	now := int64(0)
	if ok && s.stamped {
		now = nowNs()
		ok = binary.BigEndian.Uint32(p[8:12]) == s.crc && checksum(p[stampLen:]) == s.crc
		lat = now - int64(binary.BigEndian.Uint64(p[0:8]))
	}

	s.mu.Lock()
	if !ok {
		s.corrupt++
		s.mu.Unlock()
		return engine.Done
	}
	fresh := true
	if s.ordered {
		switch {
		case seq > s.next:
			s.gaps += int64(seq - s.next)
		case seq < s.next:
			s.stale++
			fresh = false
		}
		if fresh {
			s.next = seq + 1
		}
	} else {
		w, bit := int(seq>>6), uint64(1)<<(seq&63)
		for w >= len(s.seen) {
			s.seen = append(s.seen, make([]uint64, 1024)...)
		}
		if s.seen[w]&bit != 0 {
			s.dups++
			fresh = false
		}
		s.seen[w] |= bit
		if int64(seq) >= s.high.Load() {
			s.high.Store(int64(seq) + 1)
		}
	}
	if fresh {
		s.msgs++
		s.bytes += int64(len(p))
		if seq >= s.from {
			s.inRange++
		}
		if lat >= 0 {
			if len(s.lat) < cap(s.lat) {
				s.lat = append(s.lat, uint32(min(lat, maxLatNs)))
			} else {
				s.latLost++
			}
		}
	}
	first := fresh && s.msgs == 1
	s.mu.Unlock()

	if first {
		if now == 0 {
			now = nowNs()
		}
		s.firstNs.Store(now)
	}
	if fresh && s.box != nil {
		s.box.post()
	}
	return engine.Done
}

// settled is how far the datagram lane has got: every sequence number
// below it was delivered or, with a later one here already, is lost.
func (s *sink) settled() int64 { return s.high.Load() }

func (s *sink) delivered() (msgs, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.msgs, s.bytes
}

// verifyFrom starts the verified range of an unordered sink at seq:
// deliveries are counted against what was offered from there on, and
// duplicates seen so far are forgotten. A datagram lane loses messages by
// design while its links are still coming up, so chain8_dgram is verified
// from the first timed window; stream lanes are verified from message 0.
func (s *sink) verifyFrom(seq uint32) {
	s.mu.Lock()
	s.from, s.inRange, s.dups, s.corrupt = seq, 0, 0, 0
	s.mu.Unlock()
}

// reserveLat sizes the latency sample array for n more samples and
// forgets the ones taken so far (set-up and warm-up).
func (s *sink) reserveLat(n int) {
	s.mu.Lock()
	s.lat = make([]uint32, 0, n)
	s.latLost = 0
	s.mu.Unlock()
}

// latMark reports how many latency samples have been taken; the measuring
// loop calls it at window boundaries and slices the array afterwards.
func (s *sink) latMark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lat)
}

// latDropped reports the samples that found the array full. Only those
// of the timed windows matter; a backlog drained afterwards may overrun it.
func (s *sink) latDropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latLost
}

// latSamples returns the samples taken between two marks. The slice is
// shared with Process only beyond hi, so reading it needs no lock.
func (s *sink) latSamples(lo, hi int) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lat[lo:hi]
}

// mailbox lets a sink wake the churn client waiting for its delivery
// without touching a channel: Process must never block, and a condition
// variable's Broadcast never does.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int64 // deliveries posted
	quit bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) post() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// abort releases the waiter when its timeout passes.
func (b *mailbox) abort() {
	b.mu.Lock()
	b.quit = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// await blocks until the n-th delivery has been posted, or returns false
// when timeout passes first.
func (b *mailbox) await(n int64, timeout time.Duration) bool {
	t := time.AfterFunc(timeout, b.abort)
	defer t.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n < n && !b.quit {
		b.cond.Wait()
	}
	if b.n < n {
		b.quit = false
		return false
	}
	return true
}
