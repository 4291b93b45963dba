package engine

import (
	"sort"

	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/trace"
)

// The switch. One goroutine — the engine goroutine, the paper's engine
// thread — pops data from the receiver rings and the local-source ring in
// weighted fair order, hands each message to Algorithm.Process, stages what
// the algorithm sends per destination and moves each destination's run into
// its sender ring once per quantum, parking what a full ring refuses.
// Everything in this file runs on that goroutine; the scheduler state it
// touches is the engine-goroutine-only group of Engine fields.

// switchBudget bounds the data messages one switch pass processes, so
// control messages stay responsive under heavy data load.
const switchBudget = 512

// switchOnce retries parked messages, then switches data messages from the
// receiver buffers. Service order is stride scheduling on the dynamically
// tunable per-receiver weights: each quantum drains a bounded batch from
// the smallest-virtual-time nonempty buffer and advances that buffer's
// virtual time by batch/weight, which yields weighted fair sharing even
// when back-pressure admits only a trickle while amortizing the ring lock
// over the whole quantum.
func (e *Engine) switchOnce() {
	e.retryParked()
	budget := switchBudget
	rs := e.receiverSnapshot()
	// Admit newcomers at the current minimum virtual time so they
	// neither monopolize nor starve.
	minPass := e.localPass
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
	for budget > 0 && len(e.parked) < e.cfg.MaxParked {
		var best *receiver
		bestLocal := false
		bestPass := 0.0
		if e.localRing.Len() > 0 {
			bestLocal = true
			bestPass = e.localPass
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
		quantum := len(e.switchBuf)
		if quantum > budget {
			quantum = budget
		}
		if headroom := e.cfg.MaxParked - len(e.parked); quantum > headroom {
			quantum = headroom
		}
		var n int
		var from message.NodeID
		if bestLocal {
			n = e.localRing.TryPopBatch(e.switchBuf[:quantum])
			e.localPass += float64(n)
		} else {
			n = best.ring.TryPopBatch(e.switchBuf[:quantum])
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
		e.switched.Add(uint64(n))
		e.switchBatchHist.Observe(int64(n))
		e.rec.Emit(trace.KindSwitch, from, 0, int64(n))
		// A link's app set changes once per session: the map is written
		// when the app differs from the previous message's, not per message.
		var app uint32
		noted := false
		for i := 0; i < n; i++ {
			m := e.switchBuf[i]
			e.switchBuf[i] = nil
			if a := m.App(); best != nil && !(noted && a == app) {
				best.apps[a] = struct{}{}
				app, noted = a, true
			}
			// The inbound reference is credited as soon as Process is done
			// with it: whatever the algorithm forwarded was charged on its
			// own by deliverOut, so no byte is counted twice for longer than
			// one upcall. The length is read first — Process may release m.
			wl := int64(m.WireLen())
			e.processData(m)
			e.credit(wl)
		}
		e.flushStaged()
	}
	// Re-arm only when the budget stopped us with work still queued AND
	// the parked backlog leaves the next pass headroom to make progress.
	// When back-pressure (the parked limit) binds, self-signaling would
	// hot-spin the engine goroutine: the sender goroutines signal work as
	// their rings drain, which is the event that can make progress.
	if budget > 0 || len(e.parked) >= e.cfg.MaxParked {
		return
	}
	if e.localRing.Len() > 0 {
		e.signalWork()
		return
	}
	for _, r := range rs {
		if r.ring.Len() > 0 {
			e.signalWork()
			return
		}
	}
}

// park shelves a message that could not be delivered right now, labeled
// with its destination for the next retry round.
func (e *Engine) park(m *message.Msg, dest message.NodeID) {
	e.parked = append(e.parked, parkedMsg{m: m, dest: dest})
	e.parkedByDest[dest]++
	e.parkedLen.Store(int64(len(e.parked)))
}

// retryParked re-attempts delivery of messages labeled with remaining
// senders, preserving per-destination FIFO order.
func (e *Engine) retryParked() {
	e.flushStaged()
	if len(e.parked) == 0 {
		return
	}
	stillFull := e.retryFull
	clear(stillFull)
	kept := e.parked[:0]
	for _, p := range e.parked {
		if stillFull[p.dest] {
			kept = append(kept, p)
			continue
		}
		s := e.senderLocked(p.dest)
		if s == nil {
			e.counters.AddDropped(int64(p.m.WireLen()))
			e.disown(p.m)
			e.parkedByDest[p.dest]--
			continue
		}
		// A parked message keeps the charge deliverOut gave it, so the move
		// into the ring leaves the gauge alone — and nothing here may read
		// the message after a successful push: that hands it to the sender
		// goroutine, which may have written and released it already.
		if s.ring.TryPush(p.m) {
			e.parkedByDest[p.dest]--
		} else {
			stillFull[p.dest] = true
			kept = append(kept, p)
		}
	}
	e.setParked(kept)
}

// setParked installs kept — a prefix-packed reslice of e.parked — as the
// backlog, clearing the vacated tail so released messages are not pinned.
func (e *Engine) setParked(kept []parkedMsg) {
	for i := len(kept); i < len(e.parked); i++ {
		e.parked[i] = parkedMsg{}
	}
	e.parked = kept
	e.parkedLen.Store(int64(len(kept)))
}

// deliverOut hands m to the sender toward dest (creating the link on first
// use). Control goes to the ring's priority lane at once; data is staged on
// the sender until flushStaged moves the turn's run in one ring operation.
func (e *Engine) deliverOut(m *message.Msg, dest message.NodeID) {
	s := e.lastSender
	if s == nil || e.lastDest != dest {
		s = e.ensureSender(dest)
		if s == nil {
			e.counters.AddDropped(int64(m.WireLen()))
			m.Release()
			return
		}
		e.lastDest, e.lastSender = dest, s
	}
	// The reference is charged before any push: a sender that writes and
	// credits at once can then never drive the gauge negative, and a
	// message that parks instead simply keeps its charge.
	e.buffered.Add(int64(m.WireLen()))
	if m.IsControl() {
		// Control never waits behind staged or parked data: the ring's
		// priority lane preserves control-vs-control order on its own, and
		// relaxing cross-class order is exactly the service-class contract.
		// Parking happens only when the control lane itself is full.
		if !s.ring.TryPush(m) {
			if cur := e.senderLocked(dest); cur != s {
				// The cached link died and was (maybe) replaced under us.
				e.lastDest, e.lastSender = message.NodeID{}, nil
				if cur != nil && cur.ring.TryPush(m) {
					return
				}
			}
			e.park(m, dest)
		}
		return
	}
	if len(s.staged) == 0 {
		// Staging is unlocked engine-goroutine state, which makes Send's
		// "engine goroutine only" contract load-bearing. Asserted here, once
		// per sender per flush: the goroutine lookup parses a stack trace,
		// far too dear to pay on every Send.
		if invariant.Enabled {
			invariant.Assert(e.debugGID == 0 || invariant.GoroutineID() == e.debugGID,
				"data Send off the engine goroutine: output staging is unlocked")
		}
		e.dirty = append(e.dirty, s)
	}
	s.staged = append(s.staged, m)
}

// flushStaged moves every staged run into its sender's ring — one lock, one
// timestamp and one wake-up per destination — and parks, in order, what the
// ring refuses. It runs after every switch quantum, between engine turns,
// and before anything that inspects or tears down the parked backlog or a
// link, so outside a quantum every message deliverOut accepted is either in
// a ring or parked: per-destination FIFO, the MaxParked headroom rule and
// the buffered-bytes bound are decided on the same state as before staging
// existed.
func (e *Engine) flushStaged() {
	for i, s := range e.dirty {
		e.dirty[i] = nil
		run := s.staged
		n := 0
		// Per-destination order: anything already parked for the peer must
		// go first, so the whole run queues up behind it.
		if e.parkedByDest[s.peer] == 0 {
			n = s.ring.TryPushBatch(run)
		}
		// Nothing may read run[:n] any more: the sender goroutine owns those
		// messages and may have written and released them already.
		for _, m := range run[n:] {
			e.park(m, s.peer)
		}
		clear(run)
		s.staged = run[:0]
	}
	e.dirty = e.dirty[:0]
}

// forgetSender drops what the send path remembers about a link that died
// or was closed: the one-entry sender cache and the apps forwarded over it.
func (e *Engine) forgetSender(s *sender) {
	if e.lastSender == s {
		e.lastDest, e.lastSender = message.NodeID{}, nil
	}
	delete(e.sentApps, s.peer)
	e.notedDest = message.NodeID{}
}

// dropParkedFor drops (or, for a graceful close, silently releases) every
// parked message toward dest.
func (e *Engine) dropParkedFor(dest message.NodeID, countLost bool) {
	if len(e.parked) == 0 {
		return
	}
	kept := e.parked[:0]
	for _, p := range e.parked {
		if p.dest == dest {
			if countLost {
				e.counters.AddDropped(int64(p.m.WireLen()))
			}
			e.disown(p.m)
			e.parkedByDest[p.dest]--
			continue
		}
		kept = append(kept, p)
	}
	e.setParked(kept)
}

// receiverSnapshot lists the receivers in stable order. The list is
// rebuilt only when the receiver set has changed since the last call; the
// caller must not modify it.
func (e *Engine) receiverSnapshot() []*receiver {
	if e.recvGen.Load() == e.recvListGen {
		return e.recvList
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := make([]*receiver, 0, len(e.receivers))
	for _, r := range e.receivers {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].peer.Less(rs[j].peer) })
	e.recvList, e.recvListGen = rs, e.recvGen.Load()
	return rs
}

// releaseParked releases the parked backlog. Called from Stop after the
// engine goroutine has exited.
func (e *Engine) releaseParked() {
	for _, p := range e.parked {
		e.disown(p.m)
	}
	e.setParked(e.parked[:0])
}

// processData hands one data message to Algorithm.Process, releasing it on
// Done. In debug builds the goroutine identity is asserted so a call from
// anywhere but the engine goroutine fails loudly.
func (e *Engine) processData(m *message.Msg) {
	if invariant.Enabled {
		invariant.Assert(e.debugGID == 0 || invariant.GoroutineID() == e.debugGID,
			"data Process off the engine goroutine: Process ownership violated")
	}
	if e.alg.Process(m) == Done {
		m.Release()
	}
}

// noteSentApp records that app data has been forwarded toward dest, so a
// broken upstream can cascade BrokenSource to the right downstreams. The
// set changes once per session, so the pair noted last skips the maps.
func (e *Engine) noteSentApp(dest message.NodeID, app uint32) {
	if dest == e.notedDest && app == e.notedApp {
		return
	}
	apps, ok := e.sentApps[dest]
	if !ok {
		apps = make(map[uint32]struct{})
		e.sentApps[dest] = apps
	}
	apps[app] = struct{}{}
	e.notedDest, e.notedApp = dest, app
}
