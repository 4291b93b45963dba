// Package message implements the iOverlay application-layer message: a
// fixed 24-byte header (type, original sender, application identifier,
// sequence number, payload size) followed by a variable-length payload.
//
// Messages travel through the engine by reference ("zero copying of
// messages" in the paper); a thread-safe reference count governs when a
// payload buffer may be returned to its pool. The content of a message is
// mostly immutable and initialized at construction; only the sequence
// number is modifiable, matching the paper's wire format.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// HeaderSize is the fixed size of the application-layer header in bytes:
// type (4), sender IP (4), sender port (4), application id (4), sequence
// number (4), payload size (4).
const HeaderSize = 24

// DefaultMaxPayload bounds the payload size accepted by Read when the
// caller does not supply its own limit. The paper uses messages of a
// maximum (but not necessarily fixed) length.
const DefaultMaxPayload = 1 << 20

// Type identifies the kind of a message. Values below FirstDataType are
// reserved for engine- and observer-level control messages; algorithm
// developers allocate their own protocol types at or above FirstUserType.
type Type uint32

// FirstDataType is the first type value treated as application data by the
// engine's switch; everything below it is delivered on the control path.
const FirstDataType Type = 1000

// classControl is the explicit service-class tag: a type with this bit set
// travels in the control class regardless of its numeric value. The bit
// lives inside the type field of the wire header, so the class survives
// every path a message can take — including pre-rendered contiguous wire
// images handed to vectored batch writes, where no out-of-band metadata
// accompanies the bytes.
const classControl Type = 1 << 31

// Class is a message's service class: control messages bypass queued data
// end to end (priority ring lane, switch, sender) and are never shed by
// overload protection; data messages ride the bulk path.
type Class uint8

// Service classes.
const (
	ClassControl Class = iota
	ClassData
)

// String names the class for logs and reports.
func (c Class) String() string {
	if c == ClassControl {
		return "control"
	}
	return "data"
}

// AsControl tags t with the control class, letting algorithms lift one of
// their own data-range protocol types into the priority lane.
func (t Type) AsControl() Type { return t | classControl }

// Class reports the service class encoded by t: reserved types below
// FirstDataType are inherently control, and the explicit class bit lifts
// any other type into the control class.
func (t Type) Class() Class {
	if t&classControl != 0 || t&^classControl < FirstDataType {
		return ClassControl
	}
	return ClassData
}

// Errors returned by the decoding functions.
var (
	ErrPayloadTooLarge = errors.New("message: payload exceeds limit")
	ErrShortHeader     = errors.New("message: short header")
)

// Msg is one application-layer message. A Msg is created with a reference
// count of one; every additional consumer Retains it and every consumer
// Releases it when done. The engine owns destruction: algorithm code never
// releases messages it received from the engine.
//
// The structs behind the receive path are recycled: a message built by
// Pool.Get, Read, ReadContinued or FromBytes with a pool, or by FromSegment
// or FromOwned, goes back to a pool when its last reference drops and is
// handed out again as a different message. Nothing may touch a Msg — not
// even to read a header field — after dropping its last reference to it.
// New, Clone, Derive, Decode and the pool-less decoders build
// garbage-collected messages.
type Msg struct {
	typ     Type
	sender  NodeID
	app     uint32
	seq     atomic.Uint32
	payload []byte

	// raw, when non-nil, is the pooled contiguous wire image: HeaderSize
	// rendered header bytes followed by the payload (payload aliases
	// raw[HeaderSize:]). It lets WriteTo emit the whole message with one
	// Write and no copy. The header bytes are (re)rendered only while the
	// message is held privately — at construction and by SetSeq —
	// before the message is handed to sender goroutines, which only read
	// raw. Derived messages never have raw: their headers differ from the
	// buffer owner's.
	raw []byte

	refs   atomic.Int32
	pool   *Pool
	parent *Msg     // set by Derive: the message owning the shared payload
	seg    *Segment // set by FromSegment: the receive buffer aliased
	owner  Owner    // set by FromOwned: the external buffer aliased
}

// Owner is an external reference-counted buffer a message can alias via
// FromOwned; its Release is called when the message's last reference
// drops.
type Owner interface{ Release() }

// Segment is a pooled, reference-counted receive buffer. A receiver fills
// one with a single bulk socket read and decodes the messages inside it in
// place: each message's payload and wire image alias the segment, which
// stays checked out until every message decoded from it has been released.
// This is the zero-copy receive path — bytes are copied once from the
// (emulated) kernel buffer and never again.
type Segment struct {
	buf  []byte
	refs atomic.Int32
	pool *Pool
}

// Bytes returns the segment's backing storage.
func (s *Segment) Bytes() []byte { return s.buf }

// Release drops one reference; the last release recycles the segment.
func (s *Segment) Release() {
	n := s.refs.Add(-1)
	switch {
	case n == 0:
		if s.pool != nil {
			s.pool.putSegment(s)
		}
	case n < 0:
		panic("message: release of already-released segment")
	}
}

// Refs reports the current reference count; used by tests and leak checks.
func (s *Segment) Refs() int32 { return s.refs.Load() }

// New constructs a message with the given header fields and payload. The
// payload is owned by the message from this point on; callers who need to
// keep the slice must copy it first.
func New(typ Type, sender NodeID, app, seq uint32, payload []byte) *Msg {
	m := &Msg{
		typ:     typ,
		sender:  sender,
		app:     app,
		payload: payload,
	}
	m.seq.Store(seq)
	m.refs.Store(1)
	return m
}

// Type reports the message type with the service-class tag stripped, so
// protocol switches compare against their plain type constants. WireType
// exposes the tagged value.
func (m *Msg) Type() Type { return m.typ &^ classControl }

// WireType reports the type exactly as encoded on the wire, including the
// service-class tag.
func (m *Msg) WireType() Type { return m.typ }

// Class reports the message's service class.
func (m *Msg) Class() Class { return m.typ.Class() }

// IsControl reports whether the message travels in the control class.
func (m *Msg) IsControl() bool { return m.typ.Class() == ClassControl }

// Sender reports the original sender recorded in the header.
func (m *Msg) Sender() NodeID { return m.sender }

// App reports the application identifier the message belongs to.
func (m *Msg) App() uint32 { return m.app }

// Seq reports the (modifiable) sequence number.
func (m *Msg) Seq() uint32 { return m.seq.Load() }

// SetSeq updates the sequence number, the only mutable header field. Like
// all header mutations it must happen before the message is enqueued for
// sending.
func (m *Msg) SetSeq(seq uint32) {
	m.seq.Store(seq)
	if m.raw != nil {
		binary.BigEndian.PutUint32(m.raw[16:20], seq)
	}
}

// Payload returns the application data carried by the message. The slice
// is shared, not copied; callers must not mutate it unless they hold the
// only reference.
func (m *Msg) Payload() []byte { return m.payload }

// Len reports the payload length in bytes.
func (m *Msg) Len() int { return len(m.payload) }

// WireLen reports the total encoded size: header plus payload.
func (m *Msg) WireLen() int { return HeaderSize + len(m.payload) }

// IsData reports whether the engine's switch should treat the message as
// application data (as opposed to a control or protocol message).
func (m *Msg) IsData() bool { return m.typ.Class() == ClassData }

// Retain increments the reference count. It is safe for concurrent use.
func (m *Msg) Retain() *Msg {
	if m.refs.Add(1) <= 1 {
		panic("message: retain after release")
	}
	return m
}

// Release decrements the reference count. At zero the message lets go of
// what it aliased (parent, segment, owner) and, when its struct is a
// recycled one, returns to its pool: every field that says where the bytes
// came from is cleared first, so the next life starts from nothing. The
// count stays at zero while the struct waits to be reused, which keeps a
// stale Retain or Release loud: releasing more times than the message was
// retained is a bug and panics.
func (m *Msg) Release() {
	n := m.refs.Add(-1)
	switch {
	case n == 0:
		switch {
		case m.parent != nil:
			p := m.parent
			m.parent = nil
			m.payload = nil
			p.Release()
		case m.seg != nil:
			s := m.seg
			m.seg = nil
			s.Release()
			putShell(m)
		case m.owner != nil:
			o := m.owner
			m.owner = nil
			o.Release()
			putShell(m)
		case m.pool != nil:
			p := m.pool
			m.pool = nil
			p.putMsg(m)
		}
	case n < 0:
		panic("message: release of already-released message")
	}
}

// Refs reports the current reference count; used by tests and leak checks.
func (m *Msg) Refs() int32 { return m.refs.Load() }

// Clone deep-copies the message, corresponding to the Msg copy constructor
// in the paper. The clone has an independent reference count of one and no
// pool association. Algorithms must clone non-data messages received from
// the engine before re-sending them.
func (m *Msg) Clone() *Msg {
	p := make([]byte, len(m.payload))
	copy(p, m.payload)
	return New(m.typ, m.sender, m.app, m.Seq(), p)
}

// Derive returns a new message sharing m's payload under a rewritten
// header — the zero-copy retype used when a node re-labels a data stream
// (for example the source in the network-coding case study splitting one
// application stream into substreams). The derived message holds a
// reference on m, which is released when the derived message's own count
// reaches zero.
func (m *Msg) Derive(typ Type, sender NodeID, app, seq uint32) *Msg {
	m.Retain()
	d := New(typ, sender, app, seq, m.payload)
	d.parent = m
	return d
}

// String renders a compact human-readable description for logs and traces.
func (m *Msg) String() string {
	return fmt.Sprintf("msg{type=%d sender=%s app=%d seq=%d len=%d}",
		m.typ, m.sender, m.app, m.Seq(), len(m.payload))
}

// AppendHeader appends the 24-byte wire header to dst and returns the
// extended slice.
func (m *Msg) AppendHeader(dst []byte) []byte {
	var h [HeaderSize]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(m.typ))
	binary.BigEndian.PutUint32(h[4:8], m.sender.IP)
	binary.BigEndian.PutUint32(h[8:12], m.sender.Port)
	binary.BigEndian.PutUint32(h[12:16], m.app)
	binary.BigEndian.PutUint32(h[16:20], m.Seq())
	binary.BigEndian.PutUint32(h[20:24], uint32(len(m.payload)))
	return append(dst, h[:]...)
}

// WriteTo encodes the message to w: header followed by payload. It
// implements io.WriterTo. Pool-backed messages hold the whole wire image
// contiguously and emit it with a single Write and no copying.
func (m *Msg) WriteTo(w io.Writer) (int64, error) {
	if m.raw != nil {
		n, err := w.Write(m.raw[:HeaderSize+len(m.payload)])
		return int64(n), err
	}
	var h [HeaderSize]byte
	buf := m.AppendHeader(h[:0])
	n, err := w.Write(buf)
	written := int64(n)
	if err != nil {
		return written, err
	}
	if len(m.payload) > 0 {
		n, err = w.Write(m.payload)
		written += int64(n)
	}
	return written, err
}

// Wire returns the message's contiguous wire image when it has one (all
// pool-backed messages do), or nil. Senders use it to hand whole batches
// to vectored writers without per-message copies.
func (m *Msg) Wire() []byte {
	if m.raw == nil {
		return nil
	}
	return m.raw[:HeaderSize+len(m.payload)]
}

// renderHeader writes the current header fields into the raw wire buffer.
// Only called while the message is held privately (construction, SetSeq);
// sender goroutines afterwards only read the buffer.
func (m *Msg) renderHeader() {
	binary.BigEndian.PutUint32(m.raw[0:4], uint32(m.typ))
	binary.BigEndian.PutUint32(m.raw[4:8], m.sender.IP)
	binary.BigEndian.PutUint32(m.raw[8:12], m.sender.Port)
	binary.BigEndian.PutUint32(m.raw[12:16], m.app)
	binary.BigEndian.PutUint32(m.raw[16:20], m.Seq())
	binary.BigEndian.PutUint32(m.raw[20:24], uint32(len(m.payload)))
}

// Read decodes one message from r, allocating the payload from pool when
// pool is non-nil. maxPayload bounds the accepted payload size; a value of
// zero means DefaultMaxPayload. Read returns io.EOF only when no bytes of
// the next message were consumed, io.ErrUnexpectedEOF on truncation.
func Read(r io.Reader, pool *Pool, maxPayload int) (*Msg, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(h[20:24])
	if int(size) > maxPayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, size, maxPayload)
	}
	m := alloc(pool, int(size))
	if m.raw != nil {
		copy(m.raw, h[:]) // the wire image keeps the header it arrived with
	}
	if size > 0 {
		if _, err := io.ReadFull(r, m.payload); err != nil {
			m.Release()
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	m.setHeader(h[:])
	return m, nil
}

// PeekPayloadLen reports the payload size encoded in the wire header at
// the start of b; ok is false when b holds fewer than HeaderSize bytes.
func PeekPayloadLen(b []byte) (size int, ok bool) {
	if len(b) < HeaderSize {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(b[20:24])), true
}

// setHeader fills m's header fields from the wire header at the start of b.
func (m *Msg) setHeader(b []byte) {
	m.typ = Type(binary.BigEndian.Uint32(b[0:4]))
	m.sender = NodeID{
		IP:   binary.BigEndian.Uint32(b[4:8]),
		Port: binary.BigEndian.Uint32(b[8:12]),
	}
	m.app = binary.BigEndian.Uint32(b[12:16])
	m.seq.Store(binary.BigEndian.Uint32(b[16:20]))
}

// alloc returns a message with an n-byte payload and header fields still
// to be set: a recycled struct with its wire buffer attached when pool is
// non-nil, a garbage-collected one without a wire image otherwise.
func alloc(pool *Pool, n int) *Msg {
	if pool != nil {
		return pool.getMsg(n)
	}
	var payload []byte
	if n > 0 {
		payload = make([]byte, n)
	}
	return New(0, NodeID{}, 0, 0, payload)
}

// alias fills a recycled shell as the message whose complete wire image
// begins b: payload and wire image alias b, nothing is copied.
func alias(b []byte) *Msg {
	wire := HeaderSize + int(binary.BigEndian.Uint32(b[20:24]))
	m := getShell()
	m.raw = b[:wire:wire]
	m.payload = m.raw[HeaderSize:]
	m.setHeader(b)
	return m
}

// FromSegment decodes the message whose complete wire image begins at
// offset off in seg. Payload and wire image alias the segment — no copy —
// and the message holds a reference on the segment until its own count
// reaches zero. The caller must have verified (via PeekPayloadLen) that
// every byte of the message is present.
func FromSegment(seg *Segment, off int) *Msg {
	m := alias(seg.buf[off:])
	m.seg = seg
	seg.refs.Add(1)
	return m
}

// FromOwned decodes the complete message at the start of b without
// copying: payload and wire image alias b, and the message takes over
// the caller's reference on owner, releasing it when the message's own
// count reaches zero. The datagram counterpart of FromSegment — the
// receive buffer is pinned, not copied — except the reference is handed
// over rather than added: the caller must not release owner itself. The
// caller must have validated the wire image.
func FromOwned(b []byte, owner Owner) *Msg {
	m := alias(b)
	m.owner = owner
	return m
}

// FromBytes decodes the complete message at the start of b into a fresh
// pool-backed wire buffer, copying the bytes. Receivers use it for bursts
// too small to justify pinning a whole segment.
func FromBytes(b []byte, pool *Pool) *Msg {
	size := int(binary.BigEndian.Uint32(b[20:24]))
	wire := HeaderSize + size
	m := alloc(pool, size)
	if m.raw != nil {
		copy(m.raw, b[:wire])
	} else {
		copy(m.payload, b[HeaderSize:wire])
	}
	m.setHeader(b)
	return m
}

// ReadContinued assembles a message whose wire prefix pre (beginning at
// the header, which must be complete) has already been received, reading
// the remaining bytes from r. Receivers use it for messages too large to
// fit a receive segment.
func ReadContinued(pre []byte, r io.Reader, pool *Pool) (*Msg, error) {
	if len(pre) < HeaderSize {
		return nil, ErrShortHeader
	}
	size := int(binary.BigEndian.Uint32(pre[20:24]))
	wire := HeaderSize + size
	m := alloc(pool, size)
	have := len(pre)
	if have > wire {
		have = wire
	}
	rest := m.payload[have-HeaderSize:]
	if m.raw != nil {
		copy(m.raw, pre[:have])
	} else {
		copy(m.payload, pre[HeaderSize:have])
	}
	if len(rest) > 0 {
		if _, err := io.ReadFull(r, rest); err != nil {
			m.Release()
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	m.setHeader(pre)
	return m, nil
}

// Decode parses one message from a byte slice, returning the message and
// the number of bytes consumed. The payload aliases b; callers that retain
// the message beyond the lifetime of b must Clone it.
func Decode(b []byte) (*Msg, int, error) {
	if len(b) < HeaderSize {
		return nil, 0, ErrShortHeader
	}
	size := int(binary.BigEndian.Uint32(b[20:24]))
	if len(b) < HeaderSize+size {
		return nil, 0, io.ErrUnexpectedEOF
	}
	m := New(Type(binary.BigEndian.Uint32(b[0:4])),
		NodeID{
			IP:   binary.BigEndian.Uint32(b[4:8]),
			Port: binary.BigEndian.Uint32(b[8:12]),
		},
		binary.BigEndian.Uint32(b[12:16]),
		binary.BigEndian.Uint32(b[16:20]),
		b[HeaderSize:HeaderSize+size])
	return m, HeaderSize + size, nil
}
