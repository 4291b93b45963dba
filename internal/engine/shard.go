package engine

import (
	"sort"

	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/trace"
)

// The sharded switch. Config.Shards splits the engine switch into N lanes:
// every receiver and sender link is hashed to an owner shard, each shard
// runs its own stride scheduler over its receiver rings with its own batch
// buffer, parked backlog and per-lane queue-delay histograms, and shards
// exchange messages exclusively through bounded lock-free MPSC handoff
// rings (one inbox per shard) — a message received on shard A destined for
// a sender owned by shard B crosses exactly one lock-free queue per hop.
//
// The single-threaded Algorithm.Process guarantee survives intact: shard 0
// is the algorithm shard. It alone runs Process, the control drain, the
// event loop and the periodic scan; the other shards only move data. Their
// switch passes funnel popped messages into shard 0's inbox, and sends
// toward a remote-owned destination ride the owner's inbox the other way.
// With Shards == 1 every hash maps to shard 0 and the engine collapses to
// the single-goroutine switch of the unsharded design, handoff untouched.

// handoffCapFactor sizes each shard's MPSC inbox as a multiple of the
// switch batch size: deep enough to absorb a few quanta of skew between
// producer and consumer shards, small enough that the buffered bytes it
// can hide from back-pressure stay bounded.
const handoffCapFactor = 8

// xfer is one cross-shard handoff item. Exactly one of rcv/dest is
// meaningful: funnel items (rcv != nil) carry inbound data to the
// algorithm shard together with the link it arrived on; outbound items
// (rcv == nil) carry a Send toward a sender owned by the consuming shard.
// Wire bytes of an item sitting in an inbox stay on the engine's
// buffered-bytes gauge, so the memory budget sees handoff backlog too.
type xfer struct {
	m    *message.Msg
	rcv  *receiver
	dest message.NodeID
}

// shard is one lane of the switch. All mutable scheduler state is owned by
// the shard's goroutine (the algorithm shard's state by the engine
// goroutine); the ioverlayvet shardlocal check enforces that the fields
// marked shard-local below are touched only from shard methods, so every
// cross-shard interaction is an explicit inbox handoff or an atomic.
type shard struct {
	eng *Engine
	idx int

	work  chan struct{}
	inbox *queue.MPSC[xfer]

	// inboxDepth gauges the messages queued in inbox (and its high-water
	// mark) for reports and departure draining. Safe from any goroutine.
	inboxDepth metrics.Gauge
	// switched counts messages this shard's scheduler has moved.
	switched metrics.Gauge
	// parkedLen mirrors len(parked) for cross-goroutine snapshots.
	parkedLen metrics.Gauge

	// Per-lane distributions, shipped merged with each status report.
	// Observe lock-free; safe from any goroutine.
	ctrlDelayHist   metrics.Histogram
	dataDelayHist   metrics.Histogram
	switchBatchHist metrics.Histogram
	sendBatchHist   metrics.Histogram

	// debugGID records the shard goroutine's ID in ioverlay_debug builds.
	debugGID int64

	parked       []parkedMsg            // shard-local
	parkedByDest map[message.NodeID]int // shard-local
	switchBuf    []*message.Msg         // shard-local
	pending      []xfer                 // shard-local
	localPass    float64                // shard-local
	lastDest     message.NodeID         // shard-local
	lastSender   *sender                // shard-local
}

func newShard(e *Engine, idx int) *shard {
	return &shard{
		eng:          e,
		idx:          idx,
		work:         make(chan struct{}, 1),
		inbox:        queue.NewMPSC[xfer](handoffCapFactor * e.cfg.BatchSize),
		parkedByDest: make(map[message.NodeID]int),
		switchBuf:    make([]*message.Msg, e.cfg.BatchSize),
	}
}

// isAlg reports whether this is the algorithm shard — the one lane that
// runs Algorithm.Process, the control drain and the event loop.
func (sh *shard) isAlg() bool { return sh.idx == 0 }

// signal nudges the shard goroutine to run a switch pass.
func (sh *shard) signal() {
	select {
	case sh.work <- struct{}{}:
	default:
	}
}

// shardFor maps a peer to its owner shard. The hash must agree for the
// receiver and sender of the same peer so a link's state never straddles
// two lanes.
func (e *Engine) shardFor(id message.NodeID) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	h := id.IP*2654435761 ^ id.Port*2246822519
	return e.shards[h%uint32(len(e.shards))]
}

// run is a non-algorithm shard's goroutine: drain the inbox, retry parked
// messages, run the stride scheduler. The algorithm shard's pass is driven
// by Engine.run instead, interleaved with control and events.
func (sh *shard) run() {
	defer sh.eng.wg.Done()
	if invariant.Enabled {
		sh.debugGID = invariant.GoroutineID()
	}
	for {
		select {
		case <-sh.work:
			sh.runPass()
		case <-sh.eng.done:
			return
		}
	}
}

// runPass is one work-signal handling pass.
func (sh *shard) runPass() {
	sh.drainInbox()
	sh.switchOnce()
}

// drainInbox consumes the shard's handoff ring. On the algorithm shard the
// items are inbound data funneled by other shards' schedulers, delivered
// to Algorithm.Process here so the single-goroutine guarantee holds; on
// every other shard they are outbound sends toward this shard's senders.
func (sh *shard) drainInbox() {
	e := sh.eng
	if len(e.shards) == 1 {
		return // single lane: nothing ever crosses shards
	}
	consumed := 0
	if sh.isAlg() {
		// Budget and parked headroom bound the Process work per pass
		// exactly like the scheduler loop, so control stays responsive
		// and back-pressure propagates into the producer shards (a full
		// inbox stalls their funnels, then their rings, then the links).
		budget := e.cfg.SwitchBudget
		for consumed < budget && len(sh.parked) < e.cfg.MaxParked {
			x, ok := sh.inbox.TryPop()
			if !ok {
				break
			}
			sh.inboxDepth.Add(-1)
			// Credit held before debiting buffered (the same
			// no-undercount order the rings use) so a concurrent budget
			// admission never sees the message's bytes vanish mid-hop.
			wl := int64(x.m.WireLen())
			e.heldBytes.Add(wl)
			e.bufBytes.Add(-wl)
			if x.rcv != nil {
				x.rcv.apps[x.m.App()] = struct{}{}
			}
			e.processData(x.m)
			e.heldBytes.Add(-wl)
			consumed++
		}
		if consumed > 0 {
			// Space freed: producer shards blocked on a full funnel can
			// make progress again.
			for _, o := range e.shards[1:] {
				o.signal()
			}
		}
		if sh.inbox.Len() > 0 && len(sh.parked) < e.cfg.MaxParked {
			sh.signal() // keep draining the backlog next pass
		}
		return
	}
	limit := 2 * sh.inbox.Cap()
	for consumed < limit {
		x, ok := sh.inbox.TryPop()
		if !ok {
			break
		}
		sh.inboxDepth.Add(-1)
		wl := int64(x.m.WireLen())
		e.heldBytes.Add(wl)
		e.bufBytes.Add(-wl)
		sh.deliverOut(x.m, x.dest)
		e.heldBytes.Add(-wl)
		consumed++
	}
	if consumed > 0 {
		// The algorithm shard may hold sends parked on this inbox being
		// full; it can retry them now.
		e.shards[0].signal()
	}
	if sh.inbox.Len() > 0 {
		sh.signal()
	}
}

// switchOnce retries parked messages, then switches data messages from
// this shard's receiver buffers. Service order is stride scheduling on the
// dynamically tunable per-receiver weights: each quantum drains a bounded
// batch from the smallest-virtual-time nonempty buffer and advances that
// buffer's virtual time by batch/weight, which yields weighted fair
// sharing even when back-pressure admits only a trickle while amortizing
// the ring lock over the whole quantum. On the algorithm shard messages go
// straight to Algorithm.Process; on the others they are funneled into the
// algorithm shard's inbox.
func (sh *shard) switchOnce() {
	sh.retryParked()
	if !sh.retryPending() {
		return // funnel still blocked: popping more would only grow pending
	}
	e := sh.eng
	budget := e.cfg.SwitchBudget
	rs := sh.receiverSnapshot()
	// Admit newcomers at the current minimum virtual time so they
	// neither monopolize nor starve.
	minPass := sh.localPass
	if !sh.isAlg() {
		minPass = 0
		for _, r := range rs {
			if r.pass >= 0 {
				minPass = r.pass
				break
			}
		}
	}
	for _, r := range rs {
		if r.pass >= 0 && r.pass < minPass {
			minPass = r.pass
		}
	}
	for _, r := range rs {
		if r.pass < 0 {
			r.pass = minPass
		}
	}
	for budget > 0 && len(sh.parked) < e.cfg.MaxParked {
		var best *receiver
		bestLocal := false
		bestPass := 0.0
		if sh.isAlg() && e.localRing.Len() > 0 {
			bestLocal = true
			bestPass = sh.localPass
		}
		for _, r := range rs {
			if r.ring.Len() == 0 {
				continue
			}
			if (!bestLocal && best == nil) || r.pass < bestPass {
				best, bestLocal, bestPass = r, false, r.pass
			}
		}
		if best == nil && !bestLocal {
			return // nothing to switch
		}
		// One quantum: a single batched pop bounded by the remaining
		// budget and the parked-backlog headroom, so the switch admits no
		// more work per pass than the unbatched loop did.
		quantum := len(sh.switchBuf)
		if quantum > budget {
			quantum = budget
		}
		if headroom := e.cfg.MaxParked - len(sh.parked); quantum > headroom {
			quantum = headroom
		}
		var n int
		var from message.NodeID
		if bestLocal {
			n = e.localRing.TryPopBatch(sh.switchBuf[:quantum])
			sh.localPass += float64(n)
		} else {
			n = best.ring.TryPopBatch(sh.switchBuf[:quantum])
			from = best.peer
			w := int(best.weight.Load())
			if w < 1 {
				w = 1
			}
			best.pass += float64(n) / float64(w)
		}
		if n == 0 {
			continue
		}
		budget -= n
		sh.switched.Add(int64(n))
		sh.switchBatchHist.Observe(int64(n))
		e.rec.Emit(trace.KindSwitch, from, 0, int64(n))
		// The pop transferred the batch's bytes from the ring gauge to
		// heldBytes, and they settle only after disposal below — the memory
		// budget keeps seeing a quantum in flight on each of the N lanes.
		var held int64
		for i := 0; i < n; i++ {
			held += int64(sh.switchBuf[i].WireLen())
		}
		if sh.isAlg() {
			for i := 0; i < n; i++ {
				m := sh.switchBuf[i]
				sh.switchBuf[i] = nil
				if best != nil {
					best.apps[m.App()] = struct{}{}
				}
				e.processData(m)
			}
			e.heldBytes.Add(-held)
		} else {
			blocked := sh.funnel(sh.switchBuf[:n], best)
			for i := 0; i < n; i++ {
				sh.switchBuf[i] = nil
			}
			e.heldBytes.Add(-held)
			if blocked {
				return // inbox full: wait for the algorithm shard to drain
			}
		}
	}
	// Re-arm only when the budget stopped us with work still queued AND
	// the parked backlog leaves the next pass headroom to make progress.
	// When back-pressure (the parked limit) binds, self-signaling would
	// hot-spin the shard goroutine: the sender goroutines signal work as
	// their rings drain, which is the event that can make progress.
	if budget > 0 || len(sh.parked) >= e.cfg.MaxParked {
		return
	}
	if sh.isAlg() && e.localRing.Len() > 0 {
		sh.signal()
		return
	}
	for _, r := range rs {
		if r.ring.Len() > 0 {
			sh.signal()
			return
		}
	}
}

// funnel moves a popped batch into the algorithm shard's inbox, stashing
// whatever does not fit in the shard's pending queue (retried before any
// further popping, so per-source FIFO order survives a full inbox). It
// reports whether the funnel blocked. Wire bytes re-enter the gauge here:
// the ring pop released them, and they stay accounted until the algorithm
// shard consumes the item.
func (sh *shard) funnel(batch []*message.Msg, from *receiver) (blocked bool) {
	e := sh.eng
	alg := e.shards[0]
	pushed := false
	for _, m := range batch {
		e.bufBytes.Add(int64(m.WireLen()))
		x := xfer{m: m, rcv: from}
		if len(sh.pending) > 0 || !alg.inbox.TryPush(x) {
			sh.pending = append(sh.pending, x)
			continue
		}
		alg.inboxDepth.Add(1)
		pushed = true
	}
	if pushed {
		alg.signal()
	}
	return len(sh.pending) > 0
}

// retryPending re-attempts the funnel items a full inbox left behind. It
// reports whether the backlog fully cleared (popping more is pointless
// until it has).
func (sh *shard) retryPending() bool {
	if len(sh.pending) == 0 {
		return true
	}
	e := sh.eng
	alg := e.shards[0]
	pushed := 0
	for _, x := range sh.pending {
		if !alg.inbox.TryPush(x) {
			break
		}
		alg.inboxDepth.Add(1)
		pushed++
	}
	if pushed > 0 {
		n := copy(sh.pending, sh.pending[pushed:])
		for i := n; i < len(sh.pending); i++ {
			sh.pending[i] = xfer{}
		}
		sh.pending = sh.pending[:n]
		alg.signal()
	}
	return len(sh.pending) == 0
}

// park shelves a message that could not be delivered right now, labeled
// with its destination for the next retry round.
func (sh *shard) park(m *message.Msg, dest message.NodeID) {
	sh.parked = append(sh.parked, parkedMsg{m: m, dest: dest})
	sh.parkedByDest[dest]++
	sh.parkedLen.Add(1)
	sh.eng.bufBytes.Add(int64(m.WireLen()))
}

// retryParked re-attempts delivery of messages labeled with remaining
// senders, preserving per-destination FIFO order. Parked items whose
// destination is owned by another shard (possible only on the algorithm
// shard, when the owner's inbox was full) retry the handoff instead of
// the ring.
func (sh *shard) retryParked() {
	if len(sh.parked) == 0 {
		return
	}
	e := sh.eng
	stillFull := make(map[message.NodeID]bool)
	kept := sh.parked[:0]
	for _, p := range sh.parked {
		if stillFull[p.dest] {
			kept = append(kept, p)
			continue
		}
		owner := e.shardFor(p.dest)
		if owner != sh && p.m.IsData() {
			if owner.inbox.TryPush(xfer{m: p.m, dest: p.dest}) {
				// The wire bytes stay on the gauge: the message moved from
				// the parked backlog into the handoff ring.
				owner.inboxDepth.Add(1)
				sh.parkedByDest[p.dest]--
				owner.signal()
			} else {
				stillFull[p.dest] = true
				kept = append(kept, p)
			}
			continue
		}
		s := e.senderLocked(p.dest)
		if s == nil {
			e.counters.AddDropped(int64(p.m.WireLen()))
			e.bufBytes.Add(-int64(p.m.WireLen()))
			p.m.Release()
			sh.parkedByDest[p.dest]--
			continue
		}
		// The ring re-gauges the message on push, so the parked share is
		// released either way. The length is read first: a successful push
		// hands the message to the sender goroutine, which may have written
		// and released it before this goroutine looks again.
		wl := int64(p.m.WireLen())
		if s.ring.TryPush(p.m) {
			e.bufBytes.Add(-wl)
			sh.parkedByDest[p.dest]--
		} else {
			stillFull[p.dest] = true
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(sh.parked); i++ {
		sh.parked[i] = parkedMsg{}
	}
	sh.parked = kept
	sh.parkedLen.Add(int64(len(sh.parked)) - sh.parkedLen.Load())
}

// send routes one Send call. Algorithm shard only (Send may only be called
// from Process, which runs there). Control messages push straight into the
// destination ring's priority lane — rings are thread-safe and cross-class
// order is already relaxed, so a failure notification never waits behind
// the data handoff. Data toward a remote-owned destination crosses the
// owner's inbox, preserving per-destination FIFO through the parked check.
func (sh *shard) send(m *message.Msg, dest message.NodeID) {
	e := sh.eng
	if m.IsData() {
		// Bookkeeping for BrokenSource cascades happens here, on the
		// algorithm shard, regardless of which shard owns the sender.
		e.noteSentApp(dest, m.App())
	}
	owner := e.shardFor(dest)
	if owner == sh || m.IsControl() {
		sh.deliverOut(m, dest)
		return
	}
	// Preserve per-destination order: anything already parked for dest
	// must go first.
	if sh.parkedByDest[dest] > 0 || !sh.pushRemote(owner, m, dest) {
		sh.park(m, dest)
	}
}

// pushRemote hands (m, dest) to the destination's owner shard through its
// inbox, accounting the wire bytes on the gauge while the item is in
// flight. It reports false when the inbox is full.
func (sh *shard) pushRemote(owner *shard, m *message.Msg, dest message.NodeID) bool {
	wl := int64(m.WireLen())
	e := sh.eng
	// Gauge before push: the consumer subtracts on pop, and adding late
	// could swing the gauge transiently negative.
	e.bufBytes.Add(wl)
	if !owner.inbox.TryPush(xfer{m: m, dest: dest}) {
		e.bufBytes.Add(-wl)
		return false
	}
	owner.inboxDepth.Add(1)
	owner.signal()
	return true
}

// deliverOut pushes m into the sender toward dest (creating the link on
// first use) or parks it. Shard goroutine only; dest must be owned by this
// shard unless m is control (control may push cross-shard — the ring is
// thread-safe and only per-lane order matters).
func (sh *shard) deliverOut(m *message.Msg, dest message.NodeID) {
	e := sh.eng
	s := sh.lastSender
	if s == nil || sh.lastDest != dest {
		s = e.ensureSender(dest)
		if s == nil {
			e.counters.AddDropped(int64(m.WireLen()))
			m.Release()
			return
		}
		sh.lastDest, sh.lastSender = dest, s
	}
	if m.IsControl() {
		// Control never waits behind parked data: the ring's priority lane
		// preserves control-vs-control order on its own, and relaxing
		// cross-class order is exactly the service-class contract. Parking
		// happens only when the control lane itself is full.
		if !s.ring.TryPush(m) {
			if cur := e.senderLocked(dest); cur != s {
				// The cached link died and was (maybe) replaced under us.
				sh.lastDest, sh.lastSender = message.NodeID{}, nil
				if cur != nil && cur.ring.TryPush(m) {
					return
				}
			}
			sh.park(m, dest)
		}
		return
	}
	// Preserve per-destination order: anything already parked for dest
	// must go first.
	if sh.parkedByDest[dest] > 0 || !s.ring.TryPush(m) {
		if cur := e.senderLocked(dest); cur != s {
			sh.lastDest, sh.lastSender = message.NodeID{}, nil
		}
		sh.park(m, dest)
	}
}

// invalidateSender clears the shard's send cache when a link dies. Must
// run on the shard's goroutine (senderGone and CloseLink run on the
// algorithm shard, so only shard 0's cache is cleared eagerly; the other
// shards detect staleness on their next failed push).
func (sh *shard) invalidateSender(s *sender) {
	if sh.lastSender == s {
		sh.lastDest, sh.lastSender = message.NodeID{}, nil
	}
}

// dropParkedFor drops (or, for a graceful close, silently releases) every
// parked message toward dest. Must run on the shard's goroutine.
func (sh *shard) dropParkedFor(dest message.NodeID, countLost bool) {
	if len(sh.parked) == 0 {
		return
	}
	e := sh.eng
	kept := sh.parked[:0]
	for _, p := range sh.parked {
		if p.dest == dest {
			if countLost {
				e.counters.AddDropped(int64(p.m.WireLen()))
			}
			e.bufBytes.Add(-int64(p.m.WireLen()))
			p.m.Release()
			sh.parkedByDest[p.dest]--
			continue
		}
		kept = append(kept, p)
	}
	for i := len(kept); i < len(sh.parked); i++ {
		sh.parked[i] = parkedMsg{}
	}
	sh.parked = kept
	sh.parkedLen.Add(int64(len(sh.parked)) - sh.parkedLen.Load())
}

// receiverSnapshot lists the receivers this shard owns, in stable order.
func (sh *shard) receiverSnapshot() []*receiver {
	e := sh.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := make([]*receiver, 0, len(e.receivers))
	for _, r := range e.receivers {
		if r.sh == sh {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].peer.Less(rs[j].peer) })
	return rs
}

// drainForStop releases everything still parked, pending or queued in the
// inbox. Called from Stop after every shard goroutine has exited, so the
// shard-local state is quiescent.
func (sh *shard) drainForStop() {
	e := sh.eng
	for _, p := range sh.parked {
		e.bufBytes.Add(-int64(p.m.WireLen()))
		p.m.Release()
	}
	sh.parked = nil
	for _, x := range sh.pending {
		e.bufBytes.Add(-int64(x.m.WireLen()))
		x.m.Release()
	}
	sh.pending = nil
	for {
		x, ok := sh.inbox.TryPop()
		if !ok {
			break
		}
		sh.inboxDepth.Add(-1)
		e.bufBytes.Add(-int64(x.m.WireLen()))
		x.m.Release()
	}
}

// processData hands one data message to Algorithm.Process, releasing it on
// Done. Algorithm-shard goroutine only: in debug builds the goroutine
// identity is asserted so a shard boundary violation fails loudly.
func (e *Engine) processData(m *message.Msg) {
	if invariant.Enabled {
		invariant.Assert(e.debugGID == 0 || invariant.GoroutineID() == e.debugGID,
			"data Process off the algorithm shard: Process ownership violated")
	}
	if e.alg.Process(m) == Done {
		m.Release()
	}
}

// noteSentApp records that app data has been forwarded toward dest, so a
// broken upstream can cascade BrokenSource to the right downstreams.
// Algorithm-shard goroutine only (replaces the per-sender apps map, which
// sharded delivery could no longer mutate safely).
func (e *Engine) noteSentApp(dest message.NodeID, app uint32) {
	apps, ok := e.sentApps[dest]
	if !ok {
		apps = make(map[uint32]struct{})
		e.sentApps[dest] = apps
	}
	apps[app] = struct{}{}
}
