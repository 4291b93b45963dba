// Package protocol defines the control-plane vocabulary shared by the
// engine, the algorithms, and the observer: the reserved message types
// below message.FirstDataType and compact binary codecs for their
// payloads. Control messages are deliberately small — the paper evaluates
// control overhead in bytes (Figs. 15–18) — so payloads use a hand-rolled
// fixed-width binary encoding rather than a generic serializer.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/message"
)

// ErrTruncated reports a payload shorter than its declared contents.
var ErrTruncated = errors.New("protocol: truncated payload")

// ErrInvalid reports a field whose value is outside its legal range —
// a forged payload rather than a short one.
var ErrInvalid = errors.New("protocol: invalid field")

// Writer appends fixed-width fields to a byte slice.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity hint.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// I64 appends a big-endian int64.
func (w *Writer) I64(v int64) *Writer { return w.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (w *Writer) F64(v float64) *Writer { return w.U64(math.Float64bits(v)) }

// ID appends a NodeID as 8 bytes (IP, port).
func (w *Writer) ID(id message.NodeID) *Writer {
	w.buf = appendID(w.buf, id)
	return w
}

// appendID is ID for encoders that append to a caller's slice: a Writer
// escapes the bytes it appends to, a plain append does not.
func appendID(dst []byte, id message.NodeID) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(dst, id.IP), id.Port)
}

// String appends a length-prefixed UTF-8 string (max 64 KiB).
func (w *Writer) String(s string) *Writer {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// IDs appends a count-prefixed NodeID list.
func (w *Writer) IDs(ids []message.NodeID) *Writer {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.ID(id)
	}
	return w
}

// Reader consumes fixed-width fields from a byte slice. Decoding errors
// are latched: after the first failure every subsequent read returns the
// zero value and Err reports the cause, so codecs can decode a whole
// struct and check once.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err reports the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// fail latches a decoding error if none is latched yet, so codec-level
// validation (count vs. remaining bytes) surfaces exactly like a short
// read instead of silently decoding misaligned fields.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining reports undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("%w: need %d, have %d", ErrTruncated, n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 consumes a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 consumes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// ID consumes a NodeID.
func (r *Reader) ID() message.NodeID {
	return message.NodeID{IP: r.U32(), Port: r.U32()}
}

// String consumes a length-prefixed string.
func (r *Reader) String() string {
	lb := r.take(2)
	if lb == nil {
		return ""
	}
	n := int(binary.BigEndian.Uint16(lb))
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// IDs consumes a count-prefixed NodeID list.
func (r *Reader) IDs() []message.NodeID {
	n := r.U32()
	if r.err != nil || n > uint32(len(r.buf)/8) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: id list of %d", ErrTruncated, n)
		}
		return nil
	}
	ids := make([]message.NodeID, 0, n)
	for i := uint32(0); i < n; i++ {
		ids = append(ids, r.ID())
	}
	return ids
}
