package protocol

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Reserved control message types (all below message.FirstDataType). The
// names mirror the paper where it gives them: boot, request, sDeploy,
// sTerminate, BrokenSource, UpThroughput, trace.
const (
	// Link management between engines.
	TypeHello   message.Type = 1  // first message on a new connection: sender identity
	TypeWelcome message.Type = 18 // acceptor -> dialer: admitted, the link is registered

	// Observer bootstrap and monitoring.
	TypeBoot      message.Type = 2 // node -> observer: bootstrap request
	TypeBootReply message.Type = 3 // observer -> node: random subset of alive nodes
	TypeRequest   message.Type = 4 // observer -> node: request a status update
	TypeReport    message.Type = 5 // node -> observer: status update
	TypeTrace     message.Type = 6 // node -> observer: debugging/trace record
	TypeRelay     message.Type = 7 // observer -> proxy: enveloped command for a node
	TypeDepart    message.Type = 8 // node -> observer: graceful deregistration; observer -> node: depart now
	TypeBusy      message.Type = 9 // acceptor -> dialer: admission refused, retry after the carried hint

	// Observer control panel actions.
	TypeDeploy        message.Type = 10 // sDeploy: deploy an application source
	TypeTerminateApp  message.Type = 11 // sTerminate: terminate an application source
	TypeTerminateNode message.Type = 12 // terminate a node entirely
	TypeSetBandwidth  message.Type = 13 // adjust emulated bandwidth at runtime
	TypeJoin          message.Type = 14 // ask a node to join an application
	TypeLeave         message.Type = 15 // ask a node to leave an application
	TypeCustom        message.Type = 16 // algorithm-specific command, two int params

	// Observer federation.
	TypeObsSync message.Type = 17 // observer -> observer: anti-entropy membership sync

	// QoS measurement probes.
	TypePing     message.Type = 20 // latency probe
	TypePong     message.Type = 21 // latency probe reply
	TypeProbe    message.Type = 22 // bandwidth probe burst
	TypeProbeAck message.Type = 23 // bandwidth probe result

	// Engine -> algorithm notifications (produced locally, never wired).
	TypeBrokenSource   message.Type = 30 // upstream application source failed
	TypeLinkUp         message.Type = 31 // a link was established
	TypeLinkDown       message.Type = 32 // a link failed or was torn down
	TypeUpThroughput   message.Type = 33 // periodic upstream link throughput
	TypeDownThroughput message.Type = 34 // periodic downstream link throughput
	TypeTick           message.Type = 35 // algorithm-requested timer expiry
	TypeNodeShutdown   message.Type = 36 // engine is terminating gracefully
	TypeLatency        message.Type = 37 // measured RTT result for the algorithm
	TypeBandwidthEst   message.Type = 38 // measured available bandwidth result
)

// TypeName renders a reserved type for traces; unknown and data types are
// rendered numerically.
func TypeName(t message.Type) string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeBoot:
		return "boot"
	case TypeBootReply:
		return "bootReply"
	case TypeRequest:
		return "request"
	case TypeReport:
		return "report"
	case TypeTrace:
		return "trace"
	case TypeRelay:
		return "relay"
	case TypeDepart:
		return "depart"
	case TypeBusy:
		return "busy"
	case TypeDeploy:
		return "sDeploy"
	case TypeTerminateApp:
		return "sTerminate"
	case TypeTerminateNode:
		return "terminateNode"
	case TypeSetBandwidth:
		return "setBandwidth"
	case TypeJoin:
		return "join"
	case TypeLeave:
		return "leave"
	case TypeCustom:
		return "custom"
	case TypeObsSync:
		return "obsSync"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeProbe:
		return "probe"
	case TypeProbeAck:
		return "probeAck"
	case TypeBrokenSource:
		return "BrokenSource"
	case TypeLinkUp:
		return "LinkUp"
	case TypeLinkDown:
		return "LinkDown"
	case TypeUpThroughput:
		return "UpThroughput"
	case TypeDownThroughput:
		return "DownThroughput"
	case TypeTick:
		return "tick"
	case TypeNodeShutdown:
		return "nodeShutdown"
	case TypeLatency:
		return "latency"
	case TypeBandwidthEst:
		return "bandwidthEst"
	default:
		if t >= message.FirstDataType {
			return "data"
		}
		return "unknown"
	}
}

// BandwidthClass selects which emulated budget a SetBandwidth command
// adjusts, matching the paper's three emulation categories.
type BandwidthClass uint32

// Bandwidth emulation categories.
const (
	BandwidthTotal BandwidthClass = iota + 1
	BandwidthUp
	BandwidthDown
	BandwidthLink // requires Peer
)

// SetBandwidth is the payload of TypeSetBandwidth.
type SetBandwidth struct {
	Class BandwidthClass
	Rate  int64          // bytes per second; <=0 means unlimited
	Peer  message.NodeID // for BandwidthLink: the downstream end
}

// Encode serializes the command.
func (c SetBandwidth) Encode() []byte {
	return NewWriter(24).U32(uint32(c.Class)).I64(c.Rate).ID(c.Peer).Bytes()
}

// DecodeSetBandwidth parses a SetBandwidth payload.
func DecodeSetBandwidth(b []byte) (SetBandwidth, error) {
	r := NewReader(b)
	c := SetBandwidth{
		Class: BandwidthClass(r.U32()),
		Rate:  r.I64(),
		Peer:  r.ID(),
	}
	return c, r.Err()
}

// BootReply is the observer's answer to a bootstrap request: a random
// subset of existing nodes that are alive.
type BootReply struct {
	Hosts []message.NodeID
}

// Encode serializes the reply.
func (br BootReply) Encode() []byte {
	return NewWriter(4 + 8*len(br.Hosts)).IDs(br.Hosts).Bytes()
}

// DecodeBootReply parses a BootReply payload.
func DecodeBootReply(b []byte) (BootReply, error) {
	r := NewReader(b)
	br := BootReply{Hosts: r.IDs()}
	return br, r.Err()
}

// Deploy is the payload of TypeDeploy: start an application source on the
// receiving node. Rate caps the source's send rate (<=0: back-to-back as
// fast as possible, the paper's raw-performance workload), MsgSize sets
// the payload bytes per message.
type Deploy struct {
	App     uint32
	Rate    int64
	MsgSize uint32
}

// Encode serializes the command.
func (d Deploy) Encode() []byte {
	return NewWriter(16).U32(d.App).I64(d.Rate).U32(d.MsgSize).Bytes()
}

// DecodeDeploy parses a Deploy payload.
func DecodeDeploy(b []byte) (Deploy, error) {
	r := NewReader(b)
	d := Deploy{App: r.U32(), Rate: r.I64(), MsgSize: r.U32()}
	return d, r.Err()
}

// Join is the payload of TypeJoin/TypeLeave: application membership
// changes pushed by the observer; Contact optionally names a node already
// in the session to start the join at.
type Join struct {
	App     uint32
	Contact message.NodeID
}

// Encode serializes the command.
func (j Join) Encode() []byte {
	return NewWriter(12).U32(j.App).ID(j.Contact).Bytes()
}

// DecodeJoin parses a Join payload.
func DecodeJoin(b []byte) (Join, error) {
	r := NewReader(b)
	j := Join{App: r.U32(), Contact: r.ID()}
	return j, r.Err()
}

// Custom is the payload of TypeCustom: an algorithm-specific control
// message with two optional integer parameters embedded, as the observer
// supports in the paper.
type Custom struct {
	Kind uint32
	P1   int64
	P2   int64
}

// Encode serializes the command.
func (c Custom) Encode() []byte {
	return NewWriter(20).U32(c.Kind).I64(c.P1).I64(c.P2).Bytes()
}

// DecodeCustom parses a Custom payload.
func DecodeCustom(b []byte) (Custom, error) {
	r := NewReader(b)
	c := Custom{Kind: r.U32(), P1: r.I64(), P2: r.I64()}
	return c, r.Err()
}

// LinkStatus describes one active link in a status report.
type LinkStatus struct {
	Peer       message.NodeID
	Rate       float64 // bytes/sec over the measurement window
	BufLen     uint32  // queued messages in the engine buffer
	BufCap     uint32
	BytesTotal int64
}

// ShardStatus describes an engine's switch in a status report: how many
// messages its stride scheduler has switched, how many are queued in the
// receiver rings, and how many are parked awaiting a sender slot. The
// wire section is a list with handoff-depth fields because the switch
// was once split into lanes; engines now send one entry, index 0, with
// both handoff fields zero, and the decoder still accepts any count.
type ShardStatus struct {
	Shard        uint32
	Switched     uint64
	Queued       uint32
	Parked       uint32
	HandoffDepth uint32
	HandoffPeak  uint32
}

// Report is the payload of TypeReport: the periodic status update each
// node sends to the observer — lengths of all engine buffers, QoS
// measurements, and the lists of upstream and downstream nodes.
type Report struct {
	Node       message.NodeID
	Upstreams  []LinkStatus
	Downstream []LinkStatus
	Apps       []uint32
	MsgsIn     int64
	MsgsOut    int64
	Dropped    int64
	// BufferedBytes is the wire bytes of every message reference the node
	// holds — in a ring, parked, in the switch or in a sender's write batch;
	// MaxBufferedBytes its lifetime high-water mark.
	BufferedBytes    int64
	MaxBufferedBytes int64
	// QueueCtrlHist and QueueDataHist are the per-lane queueing-delay
	// distributions (log-2 nanosecond buckets) aggregated across the
	// node's sender buffers; SwitchBatchHist and SendBatchHist are the
	// switch-quantum and sender-batch size distributions: the QoS detail
	// the observer records.
	QueueCtrlHist   metrics.HistogramSnapshot
	QueueDataHist   metrics.HistogramSnapshot
	SwitchBatchHist metrics.HistogramSnapshot
	SendBatchHist   metrics.HistogramSnapshot
	// Events is the slice of the node's flight recorder published since
	// the previous report: the observer appends them to its per-node
	// series to build cross-node timelines.
	Events []trace.Event
	// Shards holds the switch occupancy section — one entry per engine.
	Shards []ShardStatus
}

// encodeHist writes a histogram snapshot sparsely: a pair count followed
// by (bucket index, count) pairs for the non-empty buckets, in index
// order — 4 bytes for an empty histogram instead of 388 dense.
func encodeHist(w *Writer, s metrics.HistogramSnapshot) {
	n := uint32(0)
	for _, c := range s.Counts {
		if c != 0 {
			n++
		}
	}
	w.U32(n)
	for i, c := range s.Counts {
		if c != 0 {
			w.U32(uint32(i)).U64(c)
		}
	}
}

// decodeHist parses one sparse histogram, guarding the pair count
// against the bytes actually present and the bucket indices against the
// histogram range so forged headers latch as errors.
func decodeHist(r *Reader) metrics.HistogramSnapshot {
	var s metrics.HistogramSnapshot
	n := r.U32()
	if r.Err() != nil {
		return s
	}
	if n > uint32(r.Remaining()/12) {
		r.fail(fmt.Errorf("%w: histogram of %d pairs", ErrTruncated, n))
		return s
	}
	for i := uint32(0); i < n; i++ {
		idx, c := r.U32(), r.U64()
		if r.Err() != nil {
			return s
		}
		if idx >= metrics.HistogramBuckets {
			r.fail(fmt.Errorf("%w: histogram bucket %d out of range", ErrInvalid, idx))
			return s
		}
		s.Counts[idx] += c
	}
	return s
}

// shardStatusSize is the fixed wire size of one shard entry:
// U32 shard + U64 switched + U32 queued + U32 parked + U32 depth +
// U32 peak.
const shardStatusSize = 4 + 8 + 4 + 4 + 4 + 4

// encodeShards writes the per-shard tail as fixed-width entries.
func encodeShards(w *Writer, shards []ShardStatus) {
	w.U32(uint32(len(shards)))
	for _, s := range shards {
		w.U32(s.Shard).U64(s.Switched).U32(s.Queued)
		w.U32(s.Parked).U32(s.HandoffDepth).U32(s.HandoffPeak)
	}
}

// decodeShards parses the per-shard tail.
func decodeShards(r *Reader) []ShardStatus {
	n := r.U32()
	if r.Err() != nil || n == 0 {
		return nil
	}
	if n > uint32(r.Remaining()/shardStatusSize) {
		r.fail(fmt.Errorf("%w: shard list of %d", ErrTruncated, n))
		return nil
	}
	shards := make([]ShardStatus, 0, n)
	for i := uint32(0); i < n; i++ {
		s := ShardStatus{
			Shard: r.U32(), Switched: r.U64(), Queued: r.U32(),
			Parked: r.U32(), HandoffDepth: r.U32(), HandoffPeak: r.U32(),
		}
		if r.Err() != nil {
			return nil
		}
		shards = append(shards, s)
	}
	return shards
}

// traceEventSize is the fixed wire size of one recorder event:
// U64 seq + I64 nanos + U32 kind + ID peer + U32 app + I64 value.
const traceEventSize = 8 + 8 + 4 + 8 + 4 + 8

// encodeEvents writes the recorder tail as fixed-width entries.
func encodeEvents(w *Writer, evs []trace.Event) {
	w.U32(uint32(len(evs)))
	for _, ev := range evs {
		w.U64(ev.Seq).I64(ev.Nanos).U32(uint32(ev.Kind)).ID(ev.Peer).U32(ev.App).I64(ev.Value)
	}
}

// decodeEvents parses the recorder tail, guarding the count and the
// kind range (a Kind is one byte; wider values are forged).
func decodeEvents(r *Reader) []trace.Event {
	n := r.U32()
	if r.Err() != nil || n == 0 {
		return nil
	}
	if n > uint32(r.Remaining()/traceEventSize) {
		r.fail(fmt.Errorf("%w: event list of %d", ErrTruncated, n))
		return nil
	}
	evs := make([]trace.Event, 0, n)
	for i := uint32(0); i < n; i++ {
		seq, nanos := r.U64(), r.I64()
		kind := r.U32()
		peer := r.ID()
		app, value := r.U32(), r.I64()
		if r.Err() != nil {
			return nil
		}
		if kind > 255 {
			r.fail(fmt.Errorf("%w: event kind %d out of range", ErrInvalid, kind))
			return nil
		}
		evs = append(evs, trace.Event{
			Seq: seq, Nanos: nanos, Kind: trace.Kind(kind),
			Peer: peer, App: app, Value: value,
		})
	}
	return evs
}

// Encode serializes the report.
func (rp Report) Encode() []byte {
	// Fixed part: node ID (8) + two link counts (4+4) + app count (4) +
	// five I64 counters (40) = 60 bytes; each link entry is 32. The
	// four histograms, the event tail and the shard tail follow, sized by
	// content.
	w := NewWriter(60 + 32*(len(rp.Upstreams)+len(rp.Downstream)) + 4*len(rp.Apps) +
		4*(4+12*metrics.HistogramBuckets) + 4 + traceEventSize*len(rp.Events) +
		4 + shardStatusSize*len(rp.Shards))
	w.ID(rp.Node)
	encodeLinks := func(links []LinkStatus) {
		w.U32(uint32(len(links)))
		for _, l := range links {
			w.ID(l.Peer).F64(l.Rate).U32(l.BufLen).U32(l.BufCap).I64(l.BytesTotal)
		}
	}
	encodeLinks(rp.Upstreams)
	encodeLinks(rp.Downstream)
	w.U32(uint32(len(rp.Apps)))
	for _, a := range rp.Apps {
		w.U32(a)
	}
	w.I64(rp.MsgsIn).I64(rp.MsgsOut).I64(rp.Dropped)
	w.I64(rp.BufferedBytes).I64(rp.MaxBufferedBytes)
	encodeHist(w, rp.QueueCtrlHist)
	encodeHist(w, rp.QueueDataHist)
	encodeHist(w, rp.SwitchBatchHist)
	encodeHist(w, rp.SendBatchHist)
	encodeEvents(w, rp.Events)
	encodeShards(w, rp.Shards)
	return w.Bytes()
}

// DecodeReport parses a Report payload.
func DecodeReport(b []byte) (Report, error) {
	r := NewReader(b)
	rp := Report{Node: r.ID()}
	decodeLinks := func() []LinkStatus {
		n := r.U32()
		if r.Err() != nil {
			return nil
		}
		// Each encoded link entry is 32 bytes (ID 8 + F64 8 + two U32 8
		// + I64 8); a count that cannot fit in the remaining bytes is a
		// forged or truncated header, not a huge allocation — and it must
		// latch as an error, not silently decode misaligned fields.
		if n > uint32(r.Remaining()/32) {
			r.fail(fmt.Errorf("%w: link list of %d", ErrTruncated, n))
			return nil
		}
		links := make([]LinkStatus, 0, n)
		for i := uint32(0); i < n; i++ {
			links = append(links, LinkStatus{
				Peer: r.ID(), Rate: r.F64(),
				BufLen: r.U32(), BufCap: r.U32(), BytesTotal: r.I64(),
			})
		}
		return links
	}
	rp.Upstreams = decodeLinks()
	rp.Downstream = decodeLinks()
	nApps := r.U32()
	if r.Err() == nil {
		if nApps > uint32(r.Remaining()/4) {
			r.fail(fmt.Errorf("%w: app list of %d", ErrTruncated, nApps))
		} else {
			rp.Apps = make([]uint32, 0, nApps)
			for i := uint32(0); i < nApps; i++ {
				rp.Apps = append(rp.Apps, r.U32())
			}
		}
	}
	rp.MsgsIn = r.I64()
	rp.MsgsOut = r.I64()
	rp.Dropped = r.I64()
	rp.BufferedBytes = r.I64()
	rp.MaxBufferedBytes = r.I64()
	rp.QueueCtrlHist = decodeHist(r)
	rp.QueueDataHist = decodeHist(r)
	rp.SwitchBatchHist = decodeHist(r)
	rp.SendBatchHist = decodeHist(r)
	rp.Events = decodeEvents(r)
	rp.Shards = decodeShards(r)
	return rp, r.Err()
}

// Throughput is the payload of TypeUpThroughput/TypeDownThroughput
// delivered to the algorithm, and of TypeBandwidthEst.
type Throughput struct {
	Peer message.NodeID
	Rate float64 // bytes per second
}

// ThroughputSize is the encoded size of a Throughput.
const ThroughputSize = 16

// Encode serializes the measurement.
func (tp Throughput) Encode() []byte { return tp.Append(make([]byte, 0, ThroughputSize)) }

// Append appends the encoded measurement to dst and returns the extended
// slice, so a caller with a buffer at hand encodes without allocating.
func (tp Throughput) Append(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(appendID(dst, tp.Peer), math.Float64bits(tp.Rate))
}

// DecodeThroughput parses a Throughput payload.
func DecodeThroughput(b []byte) (Throughput, error) {
	r := NewReader(b)
	tp := Throughput{Peer: r.ID(), Rate: r.F64()}
	return tp, r.Err()
}

// BrokenSource is the payload of TypeBrokenSource: the upstream toward App
// has failed; downstream state for it must be cleared (the domino effect).
type BrokenSource struct {
	App      uint32
	Upstream message.NodeID
}

// BrokenSourceSize is the encoded size of a BrokenSource.
const BrokenSourceSize = 12

// Encode serializes the notification.
func (bs BrokenSource) Encode() []byte { return bs.Append(make([]byte, 0, BrokenSourceSize)) }

// Append appends the encoded notification to dst and returns the extended
// slice, so a caller with a buffer at hand encodes without allocating.
func (bs BrokenSource) Append(dst []byte) []byte {
	return appendID(binary.BigEndian.AppendUint32(dst, bs.App), bs.Upstream)
}

// DecodeBrokenSource parses a BrokenSource payload.
func DecodeBrokenSource(b []byte) (BrokenSource, error) {
	r := NewReader(b)
	bs := BrokenSource{App: r.U32(), Upstream: r.ID()}
	return bs, r.Err()
}

// BusyReason says why an acceptor refused admission; carried in a Busy
// frame so the dialer (and its flight recorder) can tell token exhaustion
// from a per-source rate refusal.
type BusyReason uint32

// Admission-refusal reasons.
const (
	BusyHandshakes BusyReason = iota + 1 // in-flight handshake tokens exhausted
	BusyRate                             // per-source rate limit exceeded
)

// Busy is the payload of TypeBusy: the one frame an acceptor writes before
// closing a connection it refuses to admit. RetryAfterNanos is a hint —
// the dialer folds it into its capped backoff as a floor for the next
// attempt; zero means "use your own schedule".
type Busy struct {
	Reason          BusyReason
	RetryAfterNanos int64
}

// BusySize is the fixed wire size of a Busy payload: U32 reason + I64
// retry-after.
const BusySize = 4 + 8

// Encode serializes the refusal.
func (bz Busy) Encode() []byte {
	return NewWriter(BusySize).U32(uint32(bz.Reason)).I64(bz.RetryAfterNanos).Bytes()
}

// DecodeBusy parses a Busy payload, rejecting unknown reason codes so a
// forged frame latches as an error instead of decoding as garbage policy.
func DecodeBusy(b []byte) (Busy, error) {
	r := NewReader(b)
	bz := Busy{Reason: BusyReason(r.U32()), RetryAfterNanos: r.I64()}
	if r.Err() != nil {
		return bz, r.Err()
	}
	if bz.Reason < BusyHandshakes || bz.Reason > BusyRate {
		r.fail(fmt.Errorf("%w: busy reason %d out of range", ErrInvalid, bz.Reason))
	}
	return bz, r.Err()
}

// HelloProxy is the app-field value marking a hello as coming from a
// relay proxy rather than an overlay node.
const HelloProxy uint32 = 1

// HelloObserver is the app-field value marking a hello as coming from a
// peer observer opening a federation trunk, which carries anti-entropy
// membership syncs and relayed commands instead of node traffic.
const HelloObserver uint32 = 2

// Membership-entry flag bits carried in an ObsSync entry.
const (
	memberAlive    uint32 = 1 << 0
	memberDeparted uint32 = 1 << 1
)

// MemberEntry is one seq-versioned registration-table entry exchanged
// between federated observers. Home names the observer holding the
// node's direct route (zero when the node has none anywhere); Seq is the
// entry's version, bumped by the home observer on every material change,
// so concurrent views merge by highest version.
type MemberEntry struct {
	Node     message.NodeID
	Home     message.NodeID
	Seq      uint64
	Alive    bool
	Departed bool
}

// memberEntrySize is the fixed wire size of one entry:
// ID node + ID home + U64 seq + U32 flags.
const memberEntrySize = 8 + 8 + 8 + 4

// ObsSync is the payload of TypeObsSync: one anti-entropy round's view of
// an observer's registration table, pushed to each federation peer.
// Origin identifies the sending observer (the trunk's hello already
// carries it, but syncs may be re-propagated in larger federations, and
// liveness refreshes must be credited to the asserting home only).
type ObsSync struct {
	Origin  message.NodeID
	Entries []MemberEntry
}

// Encode serializes the sync round.
func (s ObsSync) Encode() []byte {
	w := NewWriter(12 + memberEntrySize*len(s.Entries))
	w.ID(s.Origin)
	w.U32(uint32(len(s.Entries)))
	for _, e := range s.Entries {
		var flags uint32
		if e.Alive {
			flags |= memberAlive
		}
		if e.Departed {
			flags |= memberDeparted
		}
		w.ID(e.Node).ID(e.Home).U64(e.Seq).U32(flags)
	}
	return w.Bytes()
}

// DecodeObsSync parses an ObsSync payload, guarding the entry count
// against the bytes actually present so forged headers latch as errors.
func DecodeObsSync(b []byte) (ObsSync, error) {
	r := NewReader(b)
	s := ObsSync{Origin: r.ID()}
	n := r.U32()
	if r.Err() != nil {
		return s, r.Err()
	}
	if n > uint32(r.Remaining()/memberEntrySize) {
		r.fail(fmt.Errorf("%w: member list of %d", ErrTruncated, n))
		return s, r.Err()
	}
	s.Entries = make([]MemberEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		e := MemberEntry{Node: r.ID(), Home: r.ID(), Seq: r.U64()}
		flags := r.U32()
		if r.Err() != nil {
			return s, r.Err()
		}
		if flags&^(memberAlive|memberDeparted) != 0 {
			r.fail(fmt.Errorf("%w: member flags %#x out of range", ErrInvalid, flags))
			return s, r.Err()
		}
		e.Alive = flags&memberAlive != 0
		e.Departed = flags&memberDeparted != 0
		s.Entries = append(s.Entries, e)
	}
	return s, r.Err()
}

// Relay is the payload of TypeRelay: a command enveloped by the observer
// for the proxy to unwrap and deliver to Dest over the node's inbound
// connection — how commands traverse the firewall the proxy exists for.
type Relay struct {
	Dest  message.NodeID
	Inner []byte // full wire encoding of the enveloped message
}

// Encode serializes the envelope.
func (rl Relay) Encode() []byte {
	w := NewWriter(8 + len(rl.Inner))
	w.ID(rl.Dest)
	w.buf = append(w.buf, rl.Inner...)
	return w.Bytes()
}

// DecodeRelay parses a Relay payload.
func DecodeRelay(b []byte) (Relay, error) {
	r := NewReader(b)
	rl := Relay{Dest: r.ID()}
	if r.Err() != nil {
		return rl, r.Err()
	}
	rl.Inner = b[8:]
	return rl, nil
}

// LinkEvent is the payload of TypeLinkUp/TypeLinkDown notifications the
// engine delivers to the algorithm when a connection is established, fails
// or is torn down.
type LinkEvent struct {
	Peer     message.NodeID
	Upstream bool // true: the peer was an upstream (incoming link)
}

// LinkEventSize is the encoded size of a LinkEvent.
const LinkEventSize = 12

// Encode serializes the event.
func (le LinkEvent) Encode() []byte { return le.Append(make([]byte, 0, LinkEventSize)) }

// Append appends the encoded event to dst and returns the extended slice,
// so a caller with a buffer at hand encodes without allocating.
func (le LinkEvent) Append(dst []byte) []byte {
	up := uint32(0)
	if le.Upstream {
		up = 1
	}
	return binary.BigEndian.AppendUint32(appendID(dst, le.Peer), up)
}

// DecodeLinkEvent parses a LinkEvent payload.
func DecodeLinkEvent(b []byte) (LinkEvent, error) {
	r := NewReader(b)
	le := LinkEvent{Peer: r.ID(), Upstream: r.U32() == 1}
	return le, r.Err()
}

// Probe is the payload of TypeProbe: one message of a back-to-back burst
// used to estimate available bandwidth toward a peer. The receiver times
// the burst and answers with a ProbeAck.
type Probe struct {
	Token uint32
	Index uint32
	Count uint32
	Pad   []byte // filler so the burst carries measurable volume
}

// Encode serializes the probe.
func (p Probe) Encode() []byte {
	w := NewWriter(12 + len(p.Pad))
	w.U32(p.Token).U32(p.Index).U32(p.Count)
	w.buf = append(w.buf, p.Pad...)
	return w.Bytes()
}

// DecodeProbe parses a probe payload.
func DecodeProbe(b []byte) (Probe, error) {
	r := NewReader(b)
	p := Probe{Token: r.U32(), Index: r.U32(), Count: r.U32()}
	if r.Err() != nil {
		return p, r.Err()
	}
	p.Pad = b[12:]
	return p, nil
}

// ProbeAck is the payload of TypeProbeAck: the receiver-side estimate of
// the burst's arrival rate in bytes per second.
type ProbeAck struct {
	Token uint32
	Rate  float64
}

// Encode serializes the acknowledgment.
func (p ProbeAck) Encode() []byte {
	return NewWriter(12).U32(p.Token).F64(p.Rate).Bytes()
}

// DecodeProbeAck parses a probe acknowledgment.
func DecodeProbeAck(b []byte) (ProbeAck, error) {
	r := NewReader(b)
	p := ProbeAck{Token: r.U32(), Rate: r.F64()}
	return p, r.Err()
}

// Ping is the payload of TypePing/TypePong: an opaque timestamp echoed by
// the peer; the sender computes the RTT.
type Ping struct {
	UnixNano int64
	Token    uint32
}

// Encode serializes the probe.
func (p Ping) Encode() []byte {
	return NewWriter(12).I64(p.UnixNano).U32(p.Token).Bytes()
}

// DecodePing parses a Ping payload.
func DecodePing(b []byte) (Ping, error) {
	r := NewReader(b)
	p := Ping{UnixNano: r.I64(), Token: r.U32()}
	return p, r.Err()
}

// Tick is the payload of TypeTick: an algorithm-scheduled timer with an
// opaque kind discriminator.
type Tick struct {
	Kind uint32
}

// Encode serializes the tick.
func (tk Tick) Encode() []byte { return NewWriter(4).U32(tk.Kind).Bytes() }

// DecodeTick parses a Tick payload.
func DecodeTick(b []byte) (Tick, error) {
	r := NewReader(b)
	tk := Tick{Kind: r.U32()}
	return tk, r.Err()
}
