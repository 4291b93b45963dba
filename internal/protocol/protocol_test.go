package protocol

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/message"
)

func TestWriterReaderPrimitives(t *testing.T) {
	id := message.MakeID("10.1.2.3", 8080)
	w := NewWriter(0)
	w.U32(7).U64(1 << 40).I64(-5).F64(3.5).ID(id).String("overlay")
	r := NewReader(w.Bytes())
	if got := r.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -5 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %g", got)
	}
	if got := r.ID(); got != id {
		t.Errorf("ID = %v", got)
	}
	if got := r.String(); got != "overlay" {
		t.Errorf("String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err() = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining() = %d", r.Remaining())
	}
}

func TestReaderErrorLatches(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32() // fails: only 2 bytes
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err() = %v, want ErrTruncated", r.Err())
	}
	// Subsequent reads return zero values without panicking.
	if got := r.U64(); got != 0 {
		t.Errorf("U64 after error = %d", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
	if got := r.IDs(); got != nil {
		t.Errorf("IDs after error = %v", got)
	}
}

func TestIDsRoundTrip(t *testing.T) {
	ids := []message.NodeID{
		message.MakeID("10.0.0.1", 1),
		message.MakeID("10.0.0.2", 2),
	}
	r := NewReader(NewWriter(0).IDs(ids).Bytes())
	got := r.IDs()
	if r.Err() != nil || len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Errorf("IDs round trip = %v, %v", got, r.Err())
	}
}

func TestIDsRejectsAbsurdCount(t *testing.T) {
	// A corrupted count larger than the remaining bytes must error, not
	// allocate.
	r := NewReader(NewWriter(0).U32(1 << 30).Bytes())
	if got := r.IDs(); got != nil || r.Err() == nil {
		t.Errorf("IDs with absurd count = %v, err %v", got, r.Err())
	}
}

func TestSetBandwidthRoundTrip(t *testing.T) {
	c := SetBandwidth{Class: BandwidthLink, Rate: 30 << 10, Peer: message.MakeID("10.0.0.4", 7000)}
	got, err := DecodeSetBandwidth(c.Encode())
	if err != nil || got != c {
		t.Errorf("round trip = %+v, %v; want %+v", got, err, c)
	}
}

func TestBootReplyRoundTrip(t *testing.T) {
	br := BootReply{Hosts: []message.NodeID{message.MakeID("1.2.3.4", 5)}}
	got, err := DecodeBootReply(br.Encode())
	if err != nil || len(got.Hosts) != 1 || got.Hosts[0] != br.Hosts[0] {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestDeployRoundTrip(t *testing.T) {
	d := Deploy{App: 3, Rate: 400 << 10, MsgSize: 5120}
	got, err := DecodeDeploy(d.Encode())
	if err != nil || got != d {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := Join{App: 9, Contact: message.MakeID("10.0.0.7", 7000)}
	got, err := DecodeJoin(j.Encode())
	if err != nil || got != j {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestCustomRoundTrip(t *testing.T) {
	c := Custom{Kind: 77, P1: -12345, P2: 1 << 50}
	got, err := DecodeCustom(c.Encode())
	if err != nil || got != c {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rp := Report{
		Node: message.MakeID("10.0.0.1", 7000),
		Upstreams: []LinkStatus{
			{Peer: message.MakeID("10.0.0.2", 7000), Rate: 199.5 * 1024, BufLen: 3, BufCap: 5, BytesTotal: 99999},
		},
		Downstream: []LinkStatus{
			{Peer: message.MakeID("10.0.0.3", 7000), Rate: 30 * 1024, BufLen: 5, BufCap: 5, BytesTotal: 1234},
			{Peer: message.MakeID("10.0.0.4", 7000), Rate: 0, BufLen: 0, BufCap: 5, BytesTotal: 0},
		},
		Apps:    []uint32{1, 2},
		MsgsIn:  10,
		MsgsOut: 20,
		Dropped: 1,
		Shards: []ShardStatus{
			{Shard: 0, Switched: 1 << 40, Queued: 7, Parked: 2, HandoffDepth: 0, HandoffPeak: 3},
			{Shard: 3, Switched: 42, Queued: 0, Parked: 0, HandoffDepth: 9, HandoffPeak: 64},
		},
	}
	got, err := DecodeReport(rp.Encode())
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if got.Node != rp.Node || len(got.Upstreams) != 1 || len(got.Downstream) != 2 {
		t.Fatalf("structure mismatch: %+v", got)
	}
	if got.Upstreams[0] != rp.Upstreams[0] || got.Downstream[1] != rp.Downstream[1] {
		t.Errorf("link mismatch: %+v", got)
	}
	if len(got.Apps) != 2 || got.Apps[0] != 1 || got.Apps[1] != 2 {
		t.Errorf("apps mismatch: %v", got.Apps)
	}
	if got.MsgsIn != 10 || got.MsgsOut != 20 || got.Dropped != 1 {
		t.Errorf("counters mismatch: %+v", got)
	}
	if len(got.Shards) != 2 || got.Shards[0] != rp.Shards[0] || got.Shards[1] != rp.Shards[1] {
		t.Errorf("shards mismatch: %+v", got.Shards)
	}
}

// TestReportWireLayout pins the report's fixed layout: an empty report
// is 84 bytes (60 of fixed fields, four empty histograms, and the event
// and shard counts), and the shard section is not optional — a report
// cut just before it is truncated.
func TestReportWireLayout(t *testing.T) {
	if n := len(Report{}.Encode()); n != 84 {
		t.Errorf("empty report encodes to %d bytes, want 84", n)
	}
	rp := Report{
		Node:   message.MakeID("10.0.0.1", 7000),
		Shards: []ShardStatus{{Shard: 1, Switched: 5}},
	}
	full := rp.Encode()
	cut := full[:len(full)-(4+shardStatusSize)]
	if _, err := DecodeReport(cut); !errors.Is(err, ErrTruncated) {
		t.Errorf("DecodeReport of a report without its shard section: err = %v, want ErrTruncated", err)
	}
}

func TestThroughputRoundTrip(t *testing.T) {
	tp := Throughput{Peer: message.MakeID("10.0.0.9", 1), Rate: 424.5 * 1024}
	got, err := DecodeThroughput(tp.Encode())
	if err != nil || got != tp {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestBrokenSourceRoundTrip(t *testing.T) {
	bs := BrokenSource{App: 4, Upstream: message.MakeID("10.0.0.2", 7000)}
	got, err := DecodeBrokenSource(bs.Encode())
	if err != nil || got != bs {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestPingTickRoundTrip(t *testing.T) {
	p := Ping{UnixNano: 123456789, Token: 42}
	gotP, err := DecodePing(p.Encode())
	if err != nil || gotP != p {
		t.Errorf("ping round trip = %+v, %v", gotP, err)
	}
	tk := Tick{Kind: 3}
	gotT, err := DecodeTick(tk.Encode())
	if err != nil || gotT != tk {
		t.Errorf("tick round trip = %+v, %v", gotT, err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := Report{Node: message.MakeID("1.1.1.1", 1)}.Encode()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeReport(full[:n]); err == nil {
			t.Errorf("DecodeReport accepted %d-byte truncation", n)
		}
	}
	if _, err := DecodeSetBandwidth([]byte{1}); err == nil {
		t.Error("DecodeSetBandwidth accepted garbage")
	}
	if _, err := DecodeDeploy(nil); err == nil {
		t.Error("DecodeDeploy accepted empty payload")
	}
}

func TestTypeNameCoversReservedTypes(t *testing.T) {
	named := []message.Type{
		TypeHello, TypeWelcome, TypeBusy, TypeBoot, TypeBootReply, TypeRequest,
		TypeReport, TypeTrace, TypeDeploy, TypeTerminateApp, TypeTerminateNode, TypeSetBandwidth,
		TypeJoin, TypeLeave, TypeCustom, TypePing, TypePong, TypeProbe,
		TypeProbeAck, TypeBrokenSource, TypeLinkUp, TypeLinkDown,
		TypeUpThroughput, TypeDownThroughput, TypeTick, TypeNodeShutdown,
		TypeLatency, TypeBandwidthEst,
	}
	seen := make(map[string]message.Type)
	for _, typ := range named {
		name := TypeName(typ)
		if name == "unknown" || name == "data" {
			t.Errorf("TypeName(%d) = %q", typ, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("TypeName collision: %d and %d both %q", prev, typ, name)
		}
		seen[name] = typ
	}
	if got := TypeName(message.FirstDataType + 5); got != "data" {
		t.Errorf("TypeName(data) = %q", got)
	}
	if got := TypeName(999); got != "unknown" {
		t.Errorf("TypeName(999) = %q", got)
	}
}

// TestAdmissionReplyFrames pins the two frames a dialer may read in
// answer to its hello: Welcome is a bare header, and a Busy payload is
// exactly BusySize bytes — dialers size their reply buffer from both.
func TestAdmissionReplyFrames(t *testing.T) {
	id := message.MakeID("10.0.0.2", 7000)
	var wire bytes.Buffer
	if _, err := message.New(TypeWelcome, id, 0, 0, nil).WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Len() != message.HeaderSize {
		t.Errorf("welcome frame is %d bytes, want a bare %d-byte header", wire.Len(), message.HeaderSize)
	}
	m, err := message.Read(&wire, nil, 0)
	if err != nil || m.Type() != TypeWelcome || m.Sender() != id || m.Len() != 0 || !m.IsControl() {
		t.Errorf("welcome round trip = %v, %v", m, err)
	}
	if n := len((Busy{Reason: BusyRate, RetryAfterNanos: 1}).Encode()); n != BusySize {
		t.Errorf("busy payload is %d bytes, BusySize says %d", n, BusySize)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(a uint32, b uint64, c int64, d float64, s string) bool {
		w := NewWriter(0).U32(a).U64(b).I64(c).F64(d).String(s)
		r := NewReader(w.Bytes())
		okF := r.U32() == a && r.U64() == b && r.I64() == c
		gd := r.F64()
		okF = okF && (gd == d || (d != d && gd != gd)) // NaN-safe
		gs := r.String()
		want := s
		if len(want) > 65535 {
			want = want[:65535]
		}
		return okF && gs == want && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := Probe{Token: 9, Index: 2, Count: 8, Pad: []byte{1, 2, 3}}
	got, err := DecodeProbe(p.Encode())
	if err != nil || got.Token != 9 || got.Index != 2 || got.Count != 8 ||
		string(got.Pad) != string(p.Pad) {
		t.Errorf("probe round trip = %+v, %v", got, err)
	}
	if _, err := DecodeProbe([]byte{1, 2}); err == nil {
		t.Error("DecodeProbe accepted truncation")
	}
	ack := ProbeAck{Token: 9, Rate: 123456.5}
	gotAck, err := DecodeProbeAck(ack.Encode())
	if err != nil || gotAck != ack {
		t.Errorf("probe ack round trip = %+v, %v", gotAck, err)
	}
}

func TestRelayRoundTrip(t *testing.T) {
	inner := []byte{9, 8, 7, 6, 5}
	rl := Relay{Dest: message.MakeID("10.0.0.3", 7000), Inner: inner}
	got, err := DecodeRelay(rl.Encode())
	if err != nil || got.Dest != rl.Dest || string(got.Inner) != string(inner) {
		t.Errorf("relay round trip = %+v, %v", got, err)
	}
	if _, err := DecodeRelay([]byte{1}); err == nil {
		t.Error("DecodeRelay accepted truncation")
	}
}
