package engine

import (
	"fmt"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// process implements the engine-side control-message handling of the
// paper's Table 1: engine-related messages are consumed here; everything
// else (including algorithm-specific protocol types) is passed to
// Algorithm.Process.
func (e *Engine) process(cm ctrlMsg) {
	m := cm.m
	switch m.Type() {
	case protocol.TypeRequest:
		e.sendToObserver(e.buildReport())
		e.deliverToAlg(m)
		return
	case protocol.TypeTerminateNode:
		m.Release()
		go e.Stop() // Stop waits for the engine goroutine; run it aside
		return
	case protocol.TypeDepart:
		m.Release()
		go e.Depart() // graceful: deregister and drain before stopping
		return
	case protocol.TypeSetBandwidth:
		e.applyBandwidth(m)
		m.Release()
		return
	case protocol.TypePing:
		e.replyPing(cm)
		return
	case protocol.TypePong:
		e.completePing(cm)
		return
	case protocol.TypeProbe:
		e.receiveProbe(cm)
		return
	case protocol.TypeProbeAck:
		e.completeProbe(cm)
		return
	case protocol.TypeBrokenSource:
		e.handleBrokenSource(cm)
		return
	default:
		e.deliverToAlg(m)
	}
}

func (e *Engine) deliverToAlg(m *message.Msg) {
	e.assertTurn("deliverToAlg")
	if e.alg.Process(m) == Done {
		m.Release()
	}
}

// maxReportEvents bounds the flight-recorder tail shipped per report so a
// busy interval cannot balloon a control message.
const maxReportEvents = 256

// buildReport snapshots buffer lengths, QoS measurements and the link
// lists — the periodic status update the observer displays — and attaches
// the flight-recorder events since the previous report. Token holder only
// (lastEventSeq is token-holder state).
func (e *Engine) buildReport() *message.Msg {
	rp := e.Snapshot()
	evs := e.rec.SnapshotSince(e.lastEventSeq)
	if len(evs) > maxReportEvents {
		evs = evs[len(evs)-maxReportEvents:]
	}
	if len(evs) > 0 {
		e.lastEventSeq = evs[len(evs)-1].Seq
		rp.Events = evs
	}
	return message.New(protocol.TypeReport, e.id, 0, 0, rp.Encode())
}

// Snapshot assembles the node's current status report. Safe to call from
// any goroutine.
func (e *Engine) Snapshot() protocol.Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	rp := protocol.Report{Node: e.id}
	var queued uint32
	for peer, r := range e.receivers {
		queued += uint32(r.ring.Len())
		rp.Upstreams = append(rp.Upstreams, protocol.LinkStatus{
			Peer:       peer,
			Rate:       r.meter.Rate(),
			BufLen:     uint32(r.ring.Len()),
			BufCap:     uint32(r.ring.Cap()),
			BytesTotal: r.meter.Total(),
		})
	}
	for peer, s := range e.senders {
		// A sender still dialing (or whose dial failed and is being torn
		// down) is not an established link: with dial retries a sender to
		// an unreachable peer can linger through its backoff window, and
		// reporting it would present a phantom downstream edge.
		if !s.dialed.Load() || s.conn == nil {
			continue
		}
		rp.Downstream = append(rp.Downstream, protocol.LinkStatus{
			Peer:       peer,
			Rate:       s.meter.Rate(),
			BufLen:     uint32(s.ring.Len()),
			BufCap:     uint32(s.ring.Cap()),
			BytesTotal: s.meter.Total(),
		})
	}
	for app := range e.localApps {
		rp.Apps = append(rp.Apps, app)
	}
	snap := e.counters.Snapshot()
	rp.MsgsIn, rp.MsgsOut, rp.Dropped = snap.MsgsIn, snap.MsgsOut, snap.MsgsDropped
	rp.BufferedBytes = e.buffered.Load()
	rp.MaxBufferedBytes = e.buffered.Max()
	rp.QueueCtrlHist = e.ctrlDelayHist.Snapshot()
	rp.QueueDataHist = e.dataDelayHist.Snapshot()
	rp.SwitchBatchHist = e.switchBatchHist.Snapshot()
	rp.SendBatchHist = e.sendBatchHist.Snapshot()
	// The occupancy section is a list on the wire, read by the observer and
	// the benchmark: the switch is its one entry, index 0, and hands nothing
	// off, so the handoff fields stay zero.
	rp.Shards = []protocol.ShardStatus{{
		Switched: e.switchedInline.Load() + e.switchedViaRing.Load(),
		Queued:   queued,
		Parked:   uint32(e.parked.Load()),
	}}
	return rp
}

// Counters snapshots the engine's loss/volume counters for experiments,
// and how much of the traffic took each fast path.
func (e *Engine) Counters() metrics.CountersSnapshot {
	snap := e.counters.Snapshot()
	snap.SwitchedInline, snap.SwitchedViaRing = e.switchedInline.Load(), e.switchedViaRing.Load()
	snap.WrittenInline, snap.WrittenBySender = e.writtenInline.Load(), e.writtenBySender.Load()
	return snap
}

// applyBandwidth retunes the emulated bandwidth at runtime, honoring the
// paper's three categories.
func (e *Engine) applyBandwidth(m *message.Msg) {
	cmd, err := protocol.DecodeSetBandwidth(m.Payload())
	if err != nil {
		return
	}
	switch cmd.Class {
	case protocol.BandwidthTotal:
		e.budget.Total.SetRate(cmd.Rate)
	case protocol.BandwidthUp:
		e.budget.Up.SetRate(cmd.Rate)
	case protocol.BandwidthDown:
		e.budget.Down.SetRate(cmd.Rate)
	case protocol.BandwidthLink:
		e.mu.Lock()
		e.linkRates[cmd.Peer] = cmd.Rate
		s := e.senders[cmd.Peer]
		e.mu.Unlock()
		if s != nil {
			s.linkLimit.SetRate(cmd.Rate)
		}
	}
}

// SetBandwidthLocal applies a bandwidth emulation change directly; the
// programmatic equivalent of the observer's runtime control, used by
// tests and experiment harnesses. Safe from any goroutine.
func (e *Engine) SetBandwidthLocal(cmd protocol.SetBandwidth) {
	m := message.New(protocol.TypeSetBandwidth, e.id, 0, 0, cmd.Encode())
	defer m.Release()
	e.applyBandwidth(m)
}

func (e *Engine) replyPing(cm ctrlMsg) {
	pong := message.New(protocol.TypePong, e.id, cm.m.App(), cm.m.Seq(),
		append([]byte(nil), cm.m.Payload()...))
	cm.m.Release()
	e.SendNew(pong, cm.from)
}

func (e *Engine) completePing(cm ctrlMsg) {
	defer cm.m.Release()
	p, err := protocol.DecodePing(cm.m.Payload())
	if err != nil {
		return
	}
	sent, ok := e.pingSent[p.Token]
	if !ok {
		return
	}
	delete(e.pingSent, p.Token)
	rtt := time.Since(sent)
	e.rec.Emit(trace.KindProbeRTT, cm.from, 0, rtt.Nanoseconds())
	payload := protocol.Throughput{Peer: cm.from, Rate: float64(rtt.Nanoseconds())}.Encode()
	e.notifyAlg(protocol.TypeLatency, 0, payload)
}

func (e *Engine) handleBrokenSource(cm ctrlMsg) {
	bs, err := protocol.DecodeBrokenSource(cm.m.Payload())
	cm.m.Release()
	if err != nil {
		return
	}
	e.mu.Lock()
	if r, ok := e.receivers[cm.from]; ok {
		r.apps.remove(bs.App)
	}
	e.mu.Unlock()
	if !e.appStillSupplied(bs.App, cm.from) {
		e.brokenSource(bs.App, cm.from)
	}
}

// periodic runs at the status interval: deliver throughput measurements
// to the algorithm. The engine measures; what to do about a slow child is
// the algorithm's decision. (Inactivity failure detection is not scanned
// here — each receiver carries its own monotonic deadline, see probe.go.)
func (e *Engine) periodic() {
	// The rates are read under mu and delivered after it, into the scratch
	// list the last tick left: a tick allocates nothing.
	rates := e.rates[:0]
	e.mu.Lock()
	for peer, r := range e.receivers {
		rates = append(rates, linkRate{protocol.TypeUpThroughput, peer, r.meter.Rate()})
	}
	for peer, s := range e.senders {
		rates = append(rates, linkRate{protocol.TypeDownThroughput, peer, s.meter.Rate()})
	}
	e.mu.Unlock()
	e.rates = rates
	for _, lr := range rates {
		var b [protocol.ThroughputSize]byte
		e.notifyAlg(lr.typ, 0, protocol.Throughput{Peer: lr.peer, Rate: lr.rate}.Append(b[:0]))
	}
	// Liveness kick: re-arm the switch unconditionally so that a missed
	// work signal (however it was lost) stalls progress for at most one
	// status interval instead of forever.
	e.signalWork()
}

// linkRate is one link's measured rate as a status tick reports it to the
// algorithm: an up- or a down-throughput notification.
type linkRate struct {
	typ  message.Type
	peer message.NodeID
	rate float64
}

// ----- remaining API surface -----

// NewMsg allocates a pooled data message stamped with this node as the
// original sender. Part of the API interface.
func (e *Engine) NewMsg(typ message.Type, app, seq uint32, payloadLen int) *message.Msg {
	return sharedPool.Get(typ, e.id, app, seq, payloadLen)
}

// NewControl builds a control/protocol message. Part of the API
// interface.
func (e *Engine) NewControl(typ message.Type, app uint32, payload []byte) *message.Msg {
	return message.New(typ, e.id, app, 0, payload)
}

// After schedules a Tick delivery. Part of the API interface.
func (e *Engine) After(d time.Duration, kind uint32) {
	time.AfterFunc(d, func() {
		e.postEvent(func(API) {
			e.notifyAlg(protocol.TypeTick, 0, protocol.Tick{Kind: kind}.Encode())
		})
	})
}

// Ping launches a latency probe to dest. Part of the API interface.
func (e *Engine) Ping(dest message.NodeID) {
	e.nextToken++
	token := e.nextToken
	e.pingSent[token] = time.Now()
	payload := protocol.Ping{UnixNano: time.Now().UnixNano(), Token: token}.Encode()
	e.SendNew(message.New(protocol.TypePing, e.id, 0, 0, payload), dest)
}

// Upstreams lists active incoming links. Part of the API interface; safe
// from any goroutine.
func (e *Engine) Upstreams() []message.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]message.NodeID, 0, len(e.receivers))
	for peer := range e.receivers {
		ids = append(ids, peer)
	}
	sortIDs(ids)
	return ids
}

// Downstreams lists active outgoing links. Part of the API interface;
// safe from any goroutine.
func (e *Engine) Downstreams() []message.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]message.NodeID, 0, len(e.senders))
	for peer := range e.senders {
		ids = append(ids, peer)
	}
	sortIDs(ids)
	return ids
}

// LinkRate reports measured link throughput. Part of the API interface;
// safe from any goroutine.
func (e *Engine) LinkRate(peer message.NodeID, down bool) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if down {
		if s, ok := e.senders[peer]; ok {
			return s.meter.Rate()
		}
		return 0
	}
	if r, ok := e.receivers[peer]; ok {
		return r.meter.Rate()
	}
	return 0
}

// SetReceiverWeight tunes the switch's weighted round-robin. Part of the
// API interface; safe from any goroutine (the weight is atomic).
func (e *Engine) SetReceiverWeight(peer message.NodeID, weight int) {
	if weight < 1 {
		weight = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.receivers[peer]; ok {
		r.weight.Store(int32(weight))
	}
}

// Trace ships a formatted trace record to the observer's central log,
// the way a status report travels: stashed across an observer failover,
// counted as dropped when it cannot be sent. Part of the API interface.
func (e *Engine) Trace(format string, args ...any) {
	body := fmt.Sprintf(format, args...)
	e.sendToObserver(message.New(protocol.TypeTrace, e.id, 0, 0, []byte(body)))
}

func sortIDs(ids []message.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j].Less(ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
