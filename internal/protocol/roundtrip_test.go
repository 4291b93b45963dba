package protocol

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// histWith builds a histogram snapshot with the given bucket counts.
func histWith(counts map[int]uint64) metrics.HistogramSnapshot {
	var s metrics.HistogramSnapshot
	for i, c := range counts {
		s.Counts[i] = c
	}
	return s
}

// payloadCase describes one protocol payload type for the exhaustive
// round-trip table: a representative non-zero value, its encoding, the
// decoder, and the size of the fixed (non-variable-tail) part every valid
// encoding must contain.
type payloadCase struct {
	name   string
	value  any
	encode func() []byte
	decode func([]byte) (any, error)
	fixed  int // minimum bytes a decodable payload must have
}

func allPayloadCases() []payloadCase {
	idA := message.MakeID("10.1.2.3", 8080)
	idB := message.MakeID("192.168.0.9", 443)
	idC := message.MakeID("172.16.5.6", 65535)

	report := Report{
		Node: idA,
		Upstreams: []LinkStatus{
			{Peer: idB, Rate: 1234.5, BufLen: 7, BufCap: 128, BytesTotal: 1 << 40},
		},
		Downstream: []LinkStatus{
			{Peer: idC, Rate: 0.25, BufLen: 0, BufCap: 64, BytesTotal: -1},
			{Peer: idA, Rate: 9e9, BufLen: 128, BufCap: 128, BytesTotal: 42},
		},
		Apps:             []uint32{2, 7, 4000000000},
		MsgsIn:           10,
		MsgsOut:          -3,
		Dropped:          99,
		BufferedBytes:    1 << 30,
		MaxBufferedBytes: 1 << 31,
		QueueCtrlHist:    histWith(map[int]uint64{0: 3, 12: 9}),
		QueueDataHist:    histWith(map[int]uint64{20: 1 << 40}),
		SwitchBatchHist:  histWith(map[int]uint64{5: 77}),
		SendBatchHist:    histWith(nil),
		Events: []trace.Event{
			{Seq: 1, Nanos: 1_700_000_000_000_000_001, Kind: trace.KindLinkUp, Peer: idB, App: 0, Value: 1},
			{Seq: 9, Nanos: 1_700_000_000_000_000_900, Kind: trace.KindShed, Peer: idC, App: 7, Value: 4096},
		},
	}

	return []payloadCase{
		{
			name:   "SetBandwidth",
			value:  SetBandwidth{Class: BandwidthLink, Rate: -1, Peer: idB},
			encode: SetBandwidth{Class: BandwidthLink, Rate: -1, Peer: idB}.Encode,
			decode: func(b []byte) (any, error) { return DecodeSetBandwidth(b) },
			fixed:  20,
		},
		{
			name:   "BootReply",
			value:  BootReply{Hosts: []message.NodeID{idA, idB, idC}},
			encode: BootReply{Hosts: []message.NodeID{idA, idB, idC}}.Encode,
			decode: func(b []byte) (any, error) { return DecodeBootReply(b) },
			fixed:  4,
		},
		{
			name:   "Deploy",
			value:  Deploy{App: 5, Rate: 512 << 10, MsgSize: 1024},
			encode: Deploy{App: 5, Rate: 512 << 10, MsgSize: 1024}.Encode,
			decode: func(b []byte) (any, error) { return DecodeDeploy(b) },
			fixed:  16,
		},
		{
			name:   "Join",
			value:  Join{App: 9, Contact: idC},
			encode: Join{App: 9, Contact: idC}.Encode,
			decode: func(b []byte) (any, error) { return DecodeJoin(b) },
			fixed:  12,
		},
		{
			name:   "Custom",
			value:  Custom{Kind: 3, P1: -7, P2: 1 << 62},
			encode: Custom{Kind: 3, P1: -7, P2: 1 << 62}.Encode,
			decode: func(b []byte) (any, error) { return DecodeCustom(b) },
			fixed:  20,
		},
		{
			name:   "Report",
			value:  report,
			encode: report.Encode,
			decode: func(b []byte) (any, error) { return DecodeReport(b) },
			// 60-byte fixed part + four histogram pair counts (16) +
			// the event and shard counts (4+4).
			fixed: 84,
		},
		{
			name:   "Throughput",
			value:  Throughput{Peer: idA, Rate: 3.5e6},
			encode: Throughput{Peer: idA, Rate: 3.5e6}.Encode,
			decode: func(b []byte) (any, error) { return DecodeThroughput(b) },
			fixed:  16,
		},
		{
			name:   "BrokenSource",
			value:  BrokenSource{App: 2, Upstream: idB},
			encode: BrokenSource{App: 2, Upstream: idB}.Encode,
			decode: func(b []byte) (any, error) { return DecodeBrokenSource(b) },
			fixed:  12,
		},
		{
			name:   "Relay",
			value:  Relay{Dest: idC, Inner: []byte{0xde, 0xad, 0xbe, 0xef}},
			encode: Relay{Dest: idC, Inner: []byte{0xde, 0xad, 0xbe, 0xef}}.Encode,
			decode: func(b []byte) (any, error) { return DecodeRelay(b) },
			fixed:  8,
		},
		{
			name:   "LinkEvent",
			value:  LinkEvent{Peer: idA, Upstream: true},
			encode: LinkEvent{Peer: idA, Upstream: true}.Encode,
			decode: func(b []byte) (any, error) { return DecodeLinkEvent(b) },
			fixed:  12,
		},
		{
			name:   "Probe",
			value:  Probe{Token: 77, Index: 3, Count: 16, Pad: []byte{1, 2, 3}},
			encode: Probe{Token: 77, Index: 3, Count: 16, Pad: []byte{1, 2, 3}}.Encode,
			decode: func(b []byte) (any, error) { return DecodeProbe(b) },
			fixed:  12,
		},
		{
			name:   "ProbeAck",
			value:  ProbeAck{Token: 77, Rate: 8.25e7},
			encode: ProbeAck{Token: 77, Rate: 8.25e7}.Encode,
			decode: func(b []byte) (any, error) { return DecodeProbeAck(b) },
			fixed:  12,
		},
		{
			name:   "Ping",
			value:  Ping{UnixNano: 1_700_000_000_000_000_000, Token: 42},
			encode: Ping{UnixNano: 1_700_000_000_000_000_000, Token: 42}.Encode,
			decode: func(b []byte) (any, error) { return DecodePing(b) },
			fixed:  12,
		},
		{
			name:   "Tick",
			value:  Tick{Kind: 11},
			encode: Tick{Kind: 11}.Encode,
			decode: func(b []byte) (any, error) { return DecodeTick(b) },
			fixed:  4,
		},
		{
			name:   "Busy",
			value:  Busy{Reason: BusyRate, RetryAfterNanos: 250_000_000},
			encode: Busy{Reason: BusyRate, RetryAfterNanos: 250_000_000}.Encode,
			decode: func(b []byte) (any, error) { return DecodeBusy(b) },
			fixed:  12,
		},
		{
			name: "ObsSync",
			value: ObsSync{Origin: idA, Entries: []MemberEntry{
				{Node: idB, Home: idA, Seq: 7, Alive: true},
				{Node: idC, Home: message.NodeID{}, Seq: 1 << 40, Departed: true},
			}},
			encode: ObsSync{Origin: idA, Entries: []MemberEntry{
				{Node: idB, Home: idA, Seq: 7, Alive: true},
				{Node: idC, Home: message.NodeID{}, Seq: 1 << 40, Departed: true},
			}}.Encode,
			decode: func(b []byte) (any, error) { return DecodeObsSync(b) },
			fixed:  12,
		},
	}
}

// TestAllPayloadsRoundTrip drives every protocol payload type through its
// Encode/Decode pair and requires field-exact equality. This is the
// deterministic companion to the fuzzers: a new payload type added without
// a table entry here fails TestPayloadTableIsExhaustive below.
func TestAllPayloadsRoundTrip(t *testing.T) {
	for _, tc := range allPayloadCases() {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.encode()
			if len(enc) < tc.fixed {
				t.Fatalf("encoding is %d bytes, shorter than its fixed part %d", len(enc), tc.fixed)
			}
			got, err := tc.decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.value) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tc.value)
			}
		})
	}
}

// TestAllPayloadsRejectEveryTruncation feeds every strict prefix of the
// fixed part of each encoding to its decoder: each must return
// ErrTruncated — never panic, and never succeed on zero-filled fields.
func TestAllPayloadsRejectEveryTruncation(t *testing.T) {
	for _, tc := range allPayloadCases() {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.encode()
			for i := 0; i < tc.fixed; i++ {
				if _, err := tc.decode(enc[:i]); !errors.Is(err, ErrTruncated) {
					t.Fatalf("decode of %d/%d-byte prefix: err = %v, want ErrTruncated",
						i, tc.fixed, err)
				}
			}
		})
	}
}

// TestPayloadTableIsExhaustive fails when a payload struct with an
// Encode/Decode pair exists in the package but has no round-trip table
// entry, keeping the table honest as the protocol grows.
func TestPayloadTableIsExhaustive(t *testing.T) {
	want := []string{
		"SetBandwidth", "BootReply", "Deploy", "Join", "Custom", "Report",
		"Throughput", "BrokenSource", "Relay", "LinkEvent",
		"Probe", "ProbeAck", "Ping", "Tick", "ObsSync", "Busy",
	}
	have := map[string]bool{}
	for _, tc := range allPayloadCases() {
		have[tc.name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("payload %s missing from the round-trip table", name)
		}
	}
	if len(have) != len(want) {
		t.Errorf("table has %d entries, want %d", len(have), len(want))
	}
}

// TestReportRejectsForgedCounts is the regression test for two decoder
// bugs: the link-entry guard divided by the wrong entry size (28 instead
// of 32), accepting link counts that overran the buffer, and both the
// link and app count guards bailed out without latching an error — the
// decoder then silently misaligned instead of failing.
func TestReportRejectsForgedCounts(t *testing.T) {
	base := Report{Node: message.MakeID("10.0.0.1", 7000)}.Encode()

	forge := func(off int, count uint32) []byte {
		b := append([]byte(nil), base...)
		b[off] = byte(count >> 24)
		b[off+1] = byte(count >> 16)
		b[off+2] = byte(count >> 8)
		b[off+3] = byte(count)
		return b
	}

	// Upstream link count lives right after the 8-byte node ID; the app
	// count after both (empty) link lists at offset 16.
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"huge link count", forge(8, 1<<30)},
		{"link count exceeding remaining by one entry", forge(8, 3)},
		{"huge app count", forge(16, 1<<30)},
		{"app count exceeding remaining by one", forge(16, 17)},
	} {
		if _, err := DecodeReport(tc.buf); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", tc.name, err)
		}
	}
}

// TestReportRejectsForgedHistAndEvents drives the guards on the
// observability tail: histogram pair counts and event counts that cannot
// fit the remaining bytes, bucket indices outside the histogram range,
// and event kinds wider than a byte must all latch errors instead of
// misaligning or over-allocating.
func TestReportRejectsForgedHistAndEvents(t *testing.T) {
	id := message.MakeID("10.0.0.1", 7000)
	rp := Report{
		Node:          id,
		QueueCtrlHist: histWith(map[int]uint64{3: 1}),
		Events:        []trace.Event{{Seq: 1, Nanos: 42, Kind: trace.KindSwitch, Peer: id, Value: 8}},
	}
	base := rp.Encode()

	forgeU32 := func(off int, v uint32) []byte {
		b := append([]byte(nil), base...)
		b[off] = byte(v >> 24)
		b[off+1] = byte(v >> 16)
		b[off+2] = byte(v >> 8)
		b[off+3] = byte(v)
		return b
	}

	// Layout of the empty-link report: ID 8 + three zero counts (12) +
	// five I64s (40) = offset 60 for the first histogram's pair count;
	// its single (idx,count) pair spans 60+4..60+16; the remaining three
	// histogram counts follow, then the event count, then the event with
	// its kind at +12 into the entry.
	const hist1 = 60
	const hist1Idx = hist1 + 4
	const evCount = hist1 + 4 + 12 + 3*4
	const evKind = evCount + 4 + 8 + 8
	const shardCount = evCount + 4 + 40

	for _, tc := range []struct {
		name string
		buf  []byte
		want error
	}{
		{"huge hist pair count", forgeU32(hist1, 1<<30), ErrTruncated},
		{"hist pair count exceeding remaining", forgeU32(hist1, 7), ErrTruncated},
		{"hist bucket index out of range", forgeU32(hist1Idx, metrics.HistogramBuckets), ErrInvalid},
		{"huge event count", forgeU32(evCount, 1<<30), ErrTruncated},
		{"event count exceeding remaining", forgeU32(evCount, 2), ErrTruncated},
		{"event kind out of range", forgeU32(evKind, 300), ErrInvalid},
		{"huge shard count", forgeU32(shardCount, 1<<30), ErrTruncated},
	} {
		if _, err := DecodeReport(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestVariableTailPayloadsPreserveTail checks that the two payloads with
// raw byte tails (Relay.Inner, Probe.Pad) survive empty, small, and large
// tails exactly.
func TestVariableTailPayloadsPreserveTail(t *testing.T) {
	id := message.MakeID("10.0.0.2", 7000)
	tails := [][]byte{nil, {}, {0}, make([]byte, 64<<10)}
	for i := range tails[3] {
		tails[3][i] = byte(i * 31)
	}
	for _, tail := range tails {
		rl, err := DecodeRelay(Relay{Dest: id, Inner: tail}.Encode())
		if err != nil {
			t.Fatalf("DecodeRelay(tail len %d): %v", len(tail), err)
		}
		if rl.Dest != id || !bytesEqual(rl.Inner, tail) {
			t.Errorf("Relay tail len %d not preserved", len(tail))
		}
		p, err := DecodeProbe(Probe{Token: 1, Index: 2, Count: 3, Pad: tail}.Encode())
		if err != nil {
			t.Fatalf("DecodeProbe(tail len %d): %v", len(tail), err)
		}
		if p.Token != 1 || p.Index != 2 || p.Count != 3 || !bytesEqual(p.Pad, tail) {
			t.Errorf("Probe tail len %d not preserved", len(tail))
		}
	}
}

// bytesEqual treats nil and empty as equal — decoders may return either
// for an absent tail.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
