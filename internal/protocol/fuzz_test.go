package protocol

import (
	"bytes"
	"testing"

	"repro/internal/message"
	"repro/internal/trace"
)

// decoderSpec pairs a decoder with a re-encoder so the fuzzer can check
// the canonicalization property: whatever a decoder accepts must survive
// re-encoding and re-decoding unchanged.
type decoderSpec struct {
	name     string
	decode   func([]byte) (any, error)
	reencode func(any) []byte
}

func allDecoderSpecs() []decoderSpec {
	return []decoderSpec{
		{"SetBandwidth",
			func(b []byte) (any, error) { return DecodeSetBandwidth(b) },
			func(v any) []byte { return v.(SetBandwidth).Encode() }},
		{"BootReply",
			func(b []byte) (any, error) { return DecodeBootReply(b) },
			func(v any) []byte { return v.(BootReply).Encode() }},
		{"Deploy",
			func(b []byte) (any, error) { return DecodeDeploy(b) },
			func(v any) []byte { return v.(Deploy).Encode() }},
		{"Join",
			func(b []byte) (any, error) { return DecodeJoin(b) },
			func(v any) []byte { return v.(Join).Encode() }},
		{"Custom",
			func(b []byte) (any, error) { return DecodeCustom(b) },
			func(v any) []byte { return v.(Custom).Encode() }},
		{"Report",
			func(b []byte) (any, error) { return DecodeReport(b) },
			func(v any) []byte { return v.(Report).Encode() }},
		{"Throughput",
			func(b []byte) (any, error) { return DecodeThroughput(b) },
			func(v any) []byte { return v.(Throughput).Encode() }},
		{"BrokenSource",
			func(b []byte) (any, error) { return DecodeBrokenSource(b) },
			func(v any) []byte { return v.(BrokenSource).Encode() }},
		{"Relay",
			func(b []byte) (any, error) { return DecodeRelay(b) },
			func(v any) []byte { return v.(Relay).Encode() }},
		{"LinkEvent",
			func(b []byte) (any, error) { return DecodeLinkEvent(b) },
			func(v any) []byte { return v.(LinkEvent).Encode() }},
		{"Probe",
			func(b []byte) (any, error) { return DecodeProbe(b) },
			func(v any) []byte { return v.(Probe).Encode() }},
		{"ProbeAck",
			func(b []byte) (any, error) { return DecodeProbeAck(b) },
			func(v any) []byte { return v.(ProbeAck).Encode() }},
		{"Ping",
			func(b []byte) (any, error) { return DecodePing(b) },
			func(v any) []byte { return v.(Ping).Encode() }},
		{"Tick",
			func(b []byte) (any, error) { return DecodeTick(b) },
			func(v any) []byte { return v.(Tick).Encode() }},
		{"ObsSync",
			func(b []byte) (any, error) { return DecodeObsSync(b) },
			func(v any) []byte { return v.(ObsSync).Encode() }},
		{"Busy",
			func(b []byte) (any, error) { return DecodeBusy(b) },
			func(v any) []byte { return v.(Busy).Encode() }},
	}
}

// FuzzAllPayloadDecoders throws arbitrary bytes at every payload decoder
// in the package. Decoders must never panic (truncated or forged inputs
// must surface as errors), and any value a decoder accepts must
// canonicalize: encoding it and encoding its re-decode must produce
// byte-identical output. Byte-level comparison keeps the check sound for
// NaN float fields, where struct equality would be false vacuously.
func FuzzAllPayloadDecoders(f *testing.F) {
	id := message.MakeID("10.0.0.1", 7000)
	f.Add([]byte{})
	f.Add(SetBandwidth{Class: BandwidthUp, Rate: 1 << 20, Peer: id}.Encode())
	f.Add(BootReply{Hosts: []message.NodeID{id}}.Encode())
	f.Add(Deploy{App: 1, Rate: 1024, MsgSize: 512}.Encode())
	f.Add(Join{App: 1, Contact: id}.Encode())
	f.Add(Custom{Kind: 1, P1: 2, P2: 3}.Encode())
	f.Add(Report{
		Node:      id,
		Upstreams: []LinkStatus{{Peer: id, Rate: 1, BufLen: 2, BufCap: 3, BytesTotal: 4}},
		Apps:      []uint32{1, 2},
	}.Encode())
	reportWithTail := Report{Node: id, Events: []trace.Event{
		{Seq: 3, Nanos: 1 << 50, Kind: trace.KindShed, Peer: id, App: 1, Value: 1},
	}}
	reportWithTail.QueueDataHist.Counts[7] = 12
	reportWithTail.SendBatchHist.Counts[0] = 1
	f.Add(reportWithTail.Encode())
	f.Add(Throughput{Peer: id, Rate: 2.5}.Encode())
	f.Add(BrokenSource{App: 1, Upstream: id}.Encode())
	f.Add(Relay{Dest: id, Inner: []byte("inner")}.Encode())
	f.Add(LinkEvent{Peer: id, Upstream: true}.Encode())
	f.Add(Probe{Token: 1, Index: 0, Count: 4, Pad: []byte{9, 9}}.Encode())
	f.Add(ProbeAck{Token: 1, Rate: 1e6}.Encode())
	f.Add(Ping{UnixNano: 1 << 60, Token: 5}.Encode())
	f.Add(Tick{Kind: 3}.Encode())
	f.Add(Busy{Reason: BusyHandshakes, RetryAfterNanos: 50_000_000}.Encode())
	f.Add(Busy{Reason: BusyRate, RetryAfterNanos: 1}.Encode())
	f.Add(ObsSync{Origin: id, Entries: []MemberEntry{
		{Node: id, Home: id, Seq: 4, Alive: true},
		{Node: message.MakeID("10.0.0.2", 7000), Seq: 9, Departed: true},
	}}.Encode())

	specs := allDecoderSpecs()
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, s := range specs {
			v, err := s.decode(b)
			if err != nil {
				continue
			}
			enc := s.reencode(v)
			v2, err := s.decode(enc)
			if err != nil {
				t.Fatalf("%s: re-decode of re-encoded value failed: %v", s.name, err)
			}
			if enc2 := s.reencode(v2); !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: re-encode round trip changed canonical bytes:\n first %x\nsecond %x",
					s.name, enc, enc2)
			}
		}
	})
}

// FuzzReaderPrimitives drives the low-level Reader over arbitrary input
// interpreted as a field script: it must never panic, must latch the
// first error, and after an error every read must return the zero value.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{0, 0, 0, 2, 'h', 'i'})
	f.Add([]byte{6, 6, 6}, NewWriter(0).U32(7).IDs([]message.NodeID{{IP: 1, Port: 2}}).String("x").Bytes())
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader(data)
		for _, op := range script {
			switch op % 6 {
			case 0:
				r.U32()
			case 1:
				r.U64()
			case 2:
				r.F64()
			case 3:
				r.ID()
			case 4:
				_ = r.String()
			case 5:
				r.IDs()
			}
			if r.Err() != nil {
				// Latched: every subsequent read must be a zero value.
				if r.U32() != 0 || r.U64() != 0 || r.String() != "" || r.IDs() != nil {
					t.Fatal("reads after a latched error returned non-zero values")
				}
				break
			}
		}
		if r.Err() == nil && r.Remaining() > len(data) {
			t.Fatal("Remaining grew beyond the input")
		}
	})
}
