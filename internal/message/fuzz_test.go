package message

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// fuzzPool is shared by every input of every fuzzer that decodes with a
// pool, so each message is built out of a struct and buffer that an earlier
// input — other sizes, other header fields, a failed read — left behind.
var fuzzPool = NewPool()

// fuzzWire renders a wire image for seeding the corpora.
func fuzzWire(typ Type, payload []byte) []byte {
	m := New(typ, NodeID{IP: 0x0a000001, Port: 7000}, 2, 3, payload)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecode throws arbitrary bytes at the in-place decoder. It must
// never panic; on success the consumed count must match the wire length,
// the consumed prefix must re-encode byte-identically (class bit
// included), and truncating the consumed prefix by one byte must fail.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzWire(FirstDataType, []byte("hello")))
	f.Add(fuzzWire(FirstDataType.AsControl(), nil))
	f.Add(fuzzWire(1, []byte{0}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := Decode(b)
		if err != nil {
			if m != nil {
				t.Fatal("Decode returned a message alongside an error")
			}
			return
		}
		if n < HeaderSize || n > len(b) || n != m.WireLen() {
			t.Fatalf("consumed %d bytes, wire length %d, input %d", n, m.WireLen(), len(b))
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), b[:n]) {
			t.Fatal("re-encoded wire image differs from the decoded prefix")
		}
		if _, _, err := Decode(b[:n-1]); err == nil {
			t.Fatal("Decode accepted a truncated wire image")
		}
	})
}

// FuzzRead drives the streaming decoder. The declared payload size is
// bounded by DefaultMaxPayload inside Read, so arbitrary headers cannot
// force large allocations; truncation must surface as ErrUnexpectedEOF
// (or EOF cleanly at a message boundary), never a panic or zero-filled
// payload.
func FuzzRead(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add(fuzzWire(FirstDataType, []byte("stream")), true)
	f.Add(fuzzWire(7, make([]byte, 100))[:40], false)
	f.Fuzz(func(t *testing.T, b []byte, pooled bool) {
		var pool *Pool
		if pooled {
			pool = fuzzPool
		}
		r := bytes.NewReader(b)
		m, err := Read(r, pool, 0)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF) && len(b) >= HeaderSize:
				t.Fatal("clean EOF reported after a complete header was available")
			case errors.Is(err, ErrPayloadTooLarge),
				errors.Is(err, io.EOF),
				errors.Is(err, io.ErrUnexpectedEOF):
			default:
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		defer m.Release()
		want := int(binary.BigEndian.Uint32(b[20:24]))
		if m.Len() != want {
			t.Fatalf("payload length %d, header declared %d", m.Len(), want)
		}
		if !bytes.Equal(m.Payload(), b[HeaderSize:HeaderSize+want]) {
			t.Fatal("payload bytes differ from the stream")
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), b[:HeaderSize+want]) {
			t.Fatal("re-encoded wire image differs from the consumed stream prefix")
		}
	})
}

// FuzzReadContinued exercises the large-message assembly path with an
// arbitrary split between the already-buffered prefix and the rest of
// the stream. The declared size is clamped to DefaultMaxPayload before
// the call — the engine's receiver validates sizes before handing bytes
// to ReadContinued, and an unclamped fuzzer would just test the
// allocator. Short prefixes must fail with ErrShortHeader (the
// regression this fuzzer guards).
func FuzzReadContinued(f *testing.F) {
	w := fuzzWire(FirstDataType, []byte("continued payload"))
	f.Add(w[:HeaderSize], w[HeaderSize:], true)
	f.Add(w[:30], w[30:], false)
	f.Add([]byte{}, []byte{}, true)
	f.Add(w[:10], w[10:], true)
	f.Fuzz(func(t *testing.T, pre, rest []byte, pooled bool) {
		if len(pre) >= HeaderSize {
			size := binary.BigEndian.Uint32(pre[20:24])
			if size > DefaultMaxPayload {
				pre = append([]byte(nil), pre...)
				binary.BigEndian.PutUint32(pre[20:24], size%DefaultMaxPayload)
			}
		}
		var pool *Pool
		if pooled {
			pool = fuzzPool
		}
		m, err := ReadContinued(pre, bytes.NewReader(rest), pool)
		if len(pre) < HeaderSize {
			if !errors.Is(err, ErrShortHeader) {
				t.Fatalf("short prefix (%d bytes): err = %v, want ErrShortHeader", len(pre), err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		defer m.Release()
		size := int(binary.BigEndian.Uint32(pre[20:24]))
		if m.Len() != size {
			t.Fatalf("payload length %d, header declared %d", m.Len(), size)
		}
		// The assembled payload must equal pre's tail followed by bytes
		// from rest, byte for byte.
		whole := append(append([]byte(nil), pre...), rest...)
		if len(whole) > HeaderSize+size {
			whole = whole[:HeaderSize+size]
		}
		if !bytes.Equal(m.Payload(), whole[HeaderSize:]) {
			t.Fatal("assembled payload differs from prefix+stream bytes")
		}
	})
}

// FuzzDgramDecode throws arbitrary packets at the datagram frame
// decoder and feeds whatever decodes into a reassembler. Neither may
// panic; a decoded header must be internally consistent; a reassembled
// image must be exactly one well-formed message that re-splits into a
// frame identical to some canonical encoding of the same header.
func FuzzDgramDecode(f *testing.F) {
	src := NodeID{IP: 0x0a000001, Port: 7000}
	whole := AppendDgram(nil, DgramHeader{Src: src, MsgID: 1, FragCnt: 1},
		fuzzWire(FirstDataType, []byte("dgram seed")))
	frag := AppendDgram(nil, DgramHeader{Src: src, MsgID: 2, FragIdx: 1, FragCnt: 3}, []byte("mid chunk"))
	f.Add([]byte{})
	f.Add(whole)
	f.Add(frag)
	f.Add(whole[:DgramHeaderSize+5])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, chunk, err := DecodeDgram(b)
		if err != nil {
			return
		}
		if h.FragCnt < 1 || h.FragCnt > MaxFragments || h.FragIdx >= h.FragCnt || len(chunk) == 0 {
			t.Fatalf("decoded header out of range: %+v chunk=%d", h, len(chunk))
		}
		// Re-encoding the decoded frame must reproduce the input packet.
		if re := AppendDgram(nil, h, chunk); !bytes.Equal(re, b) {
			t.Fatal("re-encoded frame differs from the decoded packet")
		}
		ra := NewReassembler(8)
		wire, ok := ra.Accept(h, chunk)
		if !ok {
			return
		}
		m, n, err := Decode(wire)
		if err != nil || n != len(wire) {
			t.Fatalf("reassembled image is not one whole message: n=%d err=%v", n, err)
		}
		_ = m
	})
}

// FuzzWireRoundTrip builds a message from arbitrary header fields and
// payload, encodes it, and decodes it back: every field — including the
// service-class bit in the wire type — must survive exactly.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint32(FirstDataType), uint32(0x0a000001), uint32(7000), uint32(1), uint32(2), []byte("x"), false)
	f.Add(uint32(5), uint32(0), uint32(0), uint32(0), uint32(0), []byte{}, false)
	f.Add(uint32(FirstDataType+9), uint32(0xffffffff), uint32(65535), uint32(9), uint32(1<<31), make([]byte, 200), true)
	f.Fuzz(func(t *testing.T, typ, ip, port, app, seq uint32, payload []byte, ctrl bool) {
		wt := Type(typ)
		if ctrl {
			wt = wt.AsControl()
		}
		m := New(wt, NodeID{IP: ip, Port: port}, app, seq, payload)
		var buf bytes.Buffer
		n, err := m.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if n != int64(HeaderSize+len(payload)) {
			t.Fatalf("WriteTo wrote %d bytes, want %d", n, HeaderSize+len(payload))
		}
		got, consumed, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if consumed != buf.Len() {
			t.Fatalf("Decode consumed %d of %d", consumed, buf.Len())
		}
		if got.WireType() != wt {
			t.Fatalf("wire type %#x, want %#x (class bit must survive)", got.WireType(), wt)
		}
		if got.Class() != wt.Class() || got.IsControl() != (wt.Class() == ClassControl) {
			t.Fatal("service class changed across the wire")
		}
		if got.Sender() != (NodeID{IP: ip, Port: port}) || got.App() != app || got.Seq() != seq {
			t.Fatal("header fields changed across the wire")
		}
		if !bytes.Equal(got.Payload(), payload) {
			t.Fatal("payload changed across the wire")
		}
		// The same image decoded into a recycled struct reads the same.
		rec := FromBytes(buf.Bytes(), fuzzPool)
		defer rec.Release()
		if rec.WireType() != wt || rec.Sender() != got.Sender() || rec.App() != app || rec.Seq() != seq ||
			rec.Refs() != 1 || !bytes.Equal(rec.Wire(), buf.Bytes()) {
			t.Fatalf("decoded into a recycled struct: %v with wire image %x, want %v", rec, rec.Wire(), got)
		}
	})
}
