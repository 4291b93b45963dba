package engine

import (
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Bandwidth probing: the paper's QoS measurement facility lets the
// algorithm measure the available bandwidth to any overlay node on
// demand. The engine sends a short back-to-back burst of probe messages
// (paced by the real emulated bandwidth like any other traffic); the peer
// times the burst's arrival and replies with the observed rate, which is
// delivered to the algorithm as a TypeBandwidthEst message.

// Probe burst shape: enough volume to exercise the path for a measurable
// interval without disturbing it for long.
const (
	probeCount   = 8
	probePadSize = 4 << 10
)

// probeAgg accumulates one inbound burst.
type probeAgg struct {
	first   time.Time
	bytes   int64
	seen    uint32
	expect  uint32
	started bool
}

type probeKey struct {
	peer  message.NodeID
	token uint32
}

// MeasureBandwidth launches an available-bandwidth probe toward dest; the
// result arrives at the algorithm as a TypeBandwidthEst message whose
// Throughput payload carries the estimated bytes/sec. Must be called from
// within a turn (i.e. from Process).
func (e *Engine) MeasureBandwidth(dest message.NodeID) {
	e.nextToken++
	token := e.nextToken
	for i := uint32(0); i < probeCount; i++ {
		p := protocol.Probe{
			Token: token,
			Index: i,
			Count: probeCount,
			Pad:   make([]byte, probePadSize),
		}
		e.SendNew(message.New(protocol.TypeProbe, e.id, 0, 0, p.Encode()), dest)
	}
}

// receiveProbe times the inbound burst and acknowledges once complete.
func (e *Engine) receiveProbe(cm ctrlMsg) {
	defer cm.m.Release()
	p, err := protocol.DecodeProbe(cm.m.Payload())
	if err != nil || p.Count == 0 {
		return
	}
	if e.probeRecv == nil {
		e.probeRecv = make(map[probeKey]*probeAgg)
	}
	key := probeKey{peer: cm.from, token: p.Token}
	agg := e.probeRecv[key]
	if agg == nil {
		agg = &probeAgg{expect: p.Count}
		e.probeRecv[key] = agg
	}
	now := time.Now()
	if !agg.started {
		// The first message only starts the clock; its bytes landed
		// before the measured interval.
		agg.started = true
		agg.first = now
	} else {
		agg.bytes += int64(cm.m.WireLen())
	}
	agg.seen++
	if agg.seen < agg.expect {
		return
	}
	delete(e.probeRecv, key)
	elapsed := now.Sub(agg.first).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-6
	}
	rate := float64(agg.bytes) / elapsed
	ack := protocol.ProbeAck{Token: p.Token, Rate: rate}
	e.SendNew(message.New(protocol.TypeProbeAck, e.id, 0, 0, ack.Encode()), cm.from)
}

// completeProbe forwards the peer's estimate to the algorithm.
func (e *Engine) completeProbe(cm ctrlMsg) {
	defer cm.m.Release()
	ack, err := protocol.DecodeProbeAck(cm.m.Payload())
	if err != nil {
		return
	}
	e.rec.Emit(trace.KindProbeBW, cm.from, 0, int64(ack.Rate))
	payload := protocol.Throughput{Peer: cm.from, Rate: ack.Rate}.Encode()
	e.notifyAlg(protocol.TypeBandwidthEst, 0, payload)
}

// ----- inactivity failure detection -----
//
// The paper detects upstream failures partly by "long consecutive periods
// of traffic inactivity". Each receiver carries a monotonic deadline: a
// timer armed for InactivityTimeout past the last observed traffic. When
// it fires, the engine goroutine compares the meter's idle time against
// the timeout — a link stalled mid-interval (a Flaky-stalled vnet link, a
// peer wedged behind a dead NAT binding) is declared dead within one
// timeout of its last byte, not whenever a periodic scan happens to run.

// armInactivity schedules the staleness deadline for r; a no-op when the
// detector is disabled.
func (e *Engine) armInactivity(r *receiver) {
	if e.cfg.InactivityTimeout <= 0 {
		return
	}
	r.inactivity = time.AfterFunc(e.cfg.InactivityTimeout, func() {
		// r.apps is token-holder state; the check runs as a turn.
		e.postEvent(func(API) { e.checkInactivity(r) })
	})
}

// checkInactivity runs as a turn of the engine goroutine when r's deadline fires:
// either the link really has been silent for the whole timeout — close it
// so the receiver goroutine reports the failure through the normal path —
// or traffic arrived in the meantime and the deadline re-arms for the
// remainder.
func (e *Engine) checkInactivity(r *receiver) {
	e.mu.Lock()
	current := e.receivers[r.peer] == r && !e.stopping
	e.mu.Unlock()
	if !current {
		return
	}
	timeout := e.cfg.InactivityTimeout
	idle := r.meter.Idle()
	// Links that never carried data are exempt, as in the original
	// periodic scan: pure control links (an observer proxy, a joiner mid
	// handshake) legitimately go quiet.
	if len(r.apps) > 0 && idle >= timeout {
		_ = r.conn.Close()
		return
	}
	next := timeout - idle
	if next < timeout/8 {
		next = timeout / 8 // bound re-arm churn near the deadline
	}
	r.inactivity.Reset(next)
}
