package message

import (
	"math/bits"
	"sync"

	"repro/internal/invariant"
)

// Pool recycles messages between the receiving and sending sockets,
// supporting the paper's zero-copy, leak-free message lifecycle: a message
// is checked out by Read, travels by reference through the engine, and
// returns here — struct and wire buffer together, one pool operation each
// way — when the last reference is released.
//
// Messages are binned by the size class of their buffer — the powers of
// two plus their 1.5× midpoints (64, 96, 128, 192, 256, ...), so mixed
// payload sizes are not round-tripped through buffers up to twice the
// needed size (the paper's 5 KB payloads recycle through 6 KB buffers
// rather than 8 KB ones). Requests above the largest class fall back to
// plain allocation.
type Pool struct {
	classes  [numClasses]sync.Pool // *Msg, raw at its class's full capacity
	segments sync.Pool
}

// SegmentSize is the capacity of one receive segment: sized to swallow a
// full default vnet pipe (64 KB) in a single read.
const SegmentSize = 64 << 10

// GetSegment checks a receive segment out of the pool, holding one owner
// reference for the caller.
func (p *Pool) GetSegment() *Segment {
	if v := p.segments.Get(); v != nil {
		s := v.(*Segment)
		s.refs.Store(1)
		return s
	}
	s := &Segment{buf: make([]byte, SegmentSize), pool: p}
	s.refs.Store(1)
	return s
}

// putSegment returns a fully released segment to the pool.
func (p *Pool) putSegment(s *Segment) { p.segments.Put(s) }

const (
	minClassBits = 6  // smallest class: 64 B
	maxClassBits = 22 // largest class: 4 MiB
	numClasses   = 2*(maxClassBits-minClassBits) + 1
	maxClassSize = 1 << maxClassBits
)

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// classFor returns the index of the smallest size class holding n bytes,
// or -1 when n exceeds the largest class. Even indices are the powers of
// two 1<<(minClassBits+i/2); odd indices are the midpoints 1.5× the
// preceding power.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > maxClassSize {
		return -1
	}
	k := bits.Len(uint(n - 1)) // smallest power of two ≥ n is 1<<k
	if n <= 3<<(k-2) {         // midpoint class between 1<<(k-1) and 1<<k
		return 2*(k-minClassBits) - 1
	}
	return 2 * (k - minClassBits)
}

// classSize reports the buffer capacity of class c.
func classSize(c int) int {
	if c%2 == 0 {
		return 1 << (minClassBits + c/2)
	}
	return 3 << (minClassBits + (c-1)/2 - 1)
}

// getMsg returns a message with refs 1 and a wire image of HeaderSize+n
// bytes — header room followed by the n-byte payload region — recycled
// when possible. Header fields are the caller's to set. Buffers are classed
// by their total (header-inclusive) size.
func (p *Pool) getMsg(n int) *Msg {
	total := HeaderSize + n
	c := classFor(total)
	var m *Msg
	if c < 0 {
		m = &Msg{raw: make([]byte, total)}
	} else if v := p.classes[c].Get(); v != nil {
		m = v.(*Msg)
		m.raw = m.raw[:total]
	} else {
		m = &Msg{raw: make([]byte, total, classSize(c))}
	}
	m.payload = m.raw[HeaderSize:]
	m.pool = p
	m.refs.Store(1)
	return m
}

// putMsg takes back a fully released message with its buffer attached. A
// buffer above the largest class is left to the garbage collector, struct
// and all. So is everything in ioverlay_debug builds, where a struct is
// never handed out twice: a stale Retain or Release then always finds the
// zero count of the message it was meant for, not a stranger's.
func (p *Pool) putMsg(m *Msg) {
	m.payload = nil
	c := classFor(cap(m.raw))
	if invariant.Enabled || c < 0 {
		m.raw = nil
		return
	}
	m.raw = m.raw[:cap(m.raw)]
	p.classes[c].Put(m)
}

// shells recycles the bufferless structs of messages that alias someone
// else's bytes (FromSegment, FromOwned). Package-level because FromOwned
// has no Pool in hand.
var shells sync.Pool

// getShell returns a bufferless message with refs 1.
func getShell() *Msg {
	m, _ := shells.Get().(*Msg)
	if m == nil {
		m = new(Msg)
	}
	m.refs.Store(1)
	return m
}

// putShell takes back a fully released aliasing message, dropping its view
// of the bytes it aliased; ioverlay_debug builds recycle nothing, as in
// putMsg.
func putShell(m *Msg) {
	m.raw, m.payload = nil, nil
	if !invariant.Enabled {
		shells.Put(m)
	}
}

// Get allocates an n-byte payload from the pool and wraps it in a message
// whose Release returns both here. The payload contents are unspecified;
// callers overwrite them.
func (p *Pool) Get(typ Type, sender NodeID, app, seq uint32, n int) *Msg {
	m := p.getMsg(n)
	m.typ, m.sender, m.app = typ, sender, app
	m.seq.Store(seq)
	m.renderHeader()
	return m
}
