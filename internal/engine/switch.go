package engine

import (
	"slices"

	"repro/internal/message"
	"repro/internal/trace"
)

// The switch. One turn at a time — whoever holds the turn token
// (Engine.turnMu) — pops data from the receiver rings and the local-source
// ring in weighted fair order, hands each message to Algorithm.Process,
// stages what the algorithm sends per destination and moves each
// destination's run to the wire or into its sender ring once per quantum,
// parking what a full ring refuses. The engine goroutine, the paper's
// engine thread, runs the turns that start from a ring; a receiver whose
// batch has nothing to queue behind runs that one quantum itself
// (switchInline). Everything in this file runs under the token; the
// scheduler state it touches is the token-holder-only group of Engine
// fields.

// switchBudget bounds the data messages one switch pass processes, so
// control messages stay responsive under heavy data load.
const switchBudget = 512

// switchOnce flushes the links' queues, then switches data messages from
// the receiver buffers. Service order is stride scheduling on the dynamically
// tunable per-receiver weights: each quantum drains a bounded batch from
// the smallest-virtual-time nonempty buffer and advances that buffer's
// virtual time by batch/weight, which yields weighted fair sharing even
// when back-pressure admits only a trickle while amortizing the ring lock
// over the whole quantum.
func (e *Engine) switchOnce() {
	e.flushOut()
	budget := switchBudget
	rs := e.receiverSnapshot()
	minPass := e.minPass(rs)
	for budget > 0 && e.parked.Load() < e.maxParked {
		var best *receiver
		bestLocal := false
		bestPass := 0.0
		if e.localQueued() > 0 {
			bestLocal = true
			bestPass = e.localPass
		}
		for _, r := range rs {
			if r.ring.Len() == 0 || !r.up {
				continue
			}
			if r.pass < 0 {
				r.pass = minPass
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
		if headroom := int(e.maxParked - e.parked.Load()); quantum > headroom {
			quantum = headroom
		}
		ring := e.localRing.Load()
		if best != nil {
			ring = &best.ring
		}
		n := ring.TryPopBatch(e.switchBuf[:quantum])
		if n == 0 {
			continue
		}
		budget -= n
		e.switchBatch(best, e.switchBuf[:n])
		e.switchedViaRing.Add(uint64(n))
	}
	// Re-arm only when the budget stopped us with work still queued AND
	// the parked backlog leaves the next pass headroom to make progress.
	// When back-pressure (the parked limit) binds, self-signaling would
	// hot-spin the engine goroutine: the sender goroutines signal work as
	// their rings drain, which is the event that can make progress.
	if budget > 0 || e.parked.Load() >= e.maxParked {
		return
	}
	if e.localQueued() > 0 {
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

// minPass is the virtual time a newcomer joins the stride schedule at: the
// smallest among the local-source ring and the links already in it, so the
// newcomer neither monopolizes nor starves. A link joins with the first
// batch the switch serves it, from its ring or inline.
func (e *Engine) minPass(rs []*receiver) float64 {
	m := e.localPass
	for _, r := range rs {
		if r.pass >= 0 && r.pass < m {
			m = r.pass
		}
	}
	return m
}

// switchBatch is one quantum: ms, already charged to the gauge, came from
// r (nil: the local-source ring) in order. It advances the source's virtual
// time, hands each message to the algorithm and flushes what that staged.
// ms is cleared.
func (e *Engine) switchBatch(r *receiver, ms []*message.Msg) {
	n := len(ms)
	var from message.NodeID
	if r == nil {
		e.localPass += float64(n)
	} else {
		from = r.peer
		w := int(r.weight.Load())
		if w < 1 {
			w = 1
		}
		r.pass += float64(n) / float64(w)
	}
	e.switchBatchHist.Observe(int64(n))
	e.rec.Emit(trace.KindSwitch, from, 0, int64(n))
	// A link's app set changes once per session: the set is consulted
	// when the app differs from the previous message's, not per message.
	var app uint32
	noted := false
	for i, m := range ms {
		ms[i] = nil
		if a := m.App(); r != nil && !(noted && a == app) {
			r.apps.add(a)
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
	e.flushOut()
}

// switchInline is the receiver-side fast path: the goroutine that decoded
// a batch for r — the link's stream receiver, or on a datagram data lane the
// node's packet reader — takes the turn token if it is free and runs the
// batch's quantum itself instead of pushing it through r's ring and waking
// the engine goroutine. It reports false, having done nothing, unless every
// one of these holds — each is what keeps a guarantee the ring path gives:
//
//   - r's ring is Idle (open and empty) and the token was free: nothing the
//     caller pushed is queued or being switched ahead of the batch — FIFO per
//     producer, which is all the ring ever promised. A link's data has one
//     producer, the stream receiver or the packet reader, so the answer holds
//     until the caller pushes; control on a datagram link rides the stream
//     and goes through deliverControl, which the waiting check covers;
//   - r is up: the algorithm has seen the link's LinkUp. On a stream link
//     that always holds once the waiting check passes — the handshake runs
//     or posts the LinkUp before its Welcome lets the dialer send — but a
//     stale datagram of the peer's previous link can beat it;
//   - nothing waits for the engine goroutine (control before data), and
//     no link's queue holds a parked backlog (that is back-pressure at
//     work: the switch pass owns the decision to admit more, and the batch
//     must fit the headroom rule as a popped quantum would).
//
// The caller never waits for the token and, holding it, never blocks: the
// quantum ends in try-writes and TryPush. Everything read here that is
// token-holder-only state is read after the TryLock.
func (e *Engine) switchInline(r *receiver, batch []*message.Msg, bytes int64) bool {
	if e.waiting.Load() > 0 || !r.ring.Idle() {
		// With a turn waiting, not even trying keeps this goroutine from
		// barging in front of the engine goroutine as it wakes to take the
		// token.
		return false
	}
	if !e.turnMu.TryLock() {
		return false
	}
	// waiting again: the engine goroutine may have been handed something
	// and found the token taken since the look above.
	if !r.up || e.waiting.Load() > 0 || e.parked.Load() > 0 || int64(len(batch)) > e.maxParked {
		e.turnMu.Unlock()
		return false
	}
	if r.pass < 0 {
		r.pass = e.minPass(e.receiverSnapshot())
	}
	e.buffered.Add(bytes)
	e.switchBatch(r, batch)
	e.switchedInline.Add(uint64(len(batch)))
	e.turnMu.Unlock()
	return true
}

// deliverOut hands m to the sender toward dest (creating the link on first
// use) by way of the link's queue, which flushOut moves to the wire or into
// the ring once per quantum. Control skips the queue for the ring's
// priority lane at once, unless the lane is full or control already waits
// in the queue, which flushOut moves into the lane first: the lane alone
// keeps control-vs-control order only while none of the peer's control is
// queued. Control never waits behind queued data: relaxing cross-class
// order is exactly the service-class contract.
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
	// message that queues instead simply keeps its charge.
	e.buffered.Add(int64(m.WireLen()))
	if !m.IsControl() {
		s.apps.add(m.App())
	} else if !s.ctrlQueued() {
		if one := [1]*message.Msg{m}; e.pushOrWant(s, one[:]) == 1 {
			return
		}
	}
	if len(s.out) == 0 {
		// The queue is token-holder-only state, which makes Send's "within
		// a turn" contract load-bearing. Asserted once per link per flush.
		e.assertTurn("Send")
		e.dirty = append(e.dirty, s)
	}
	s.out = append(s.out, m)
}

// flushOut moves every non-empty link queue toward the wire — one lock, one
// timestamp and one wake-up per link — and keeps, in order, what the ring
// refuses: the parked backlog. It runs after every switch quantum, between
// engine turns, and before anything that inspects or tears down a link, so
// outside a quantum every message deliverOut accepted is in a ring, written
// or parked and counted: per-link FIFO, the parked-backlog headroom rule and
// the buffered-bytes bound are decided on that state.
func (e *Engine) flushOut() {
	if len(e.dirty) == 0 {
		return
	}
	kept, parked := e.dirty[:0], 0
	for i, s := range e.dirty {
		e.dirty[i] = nil
		if len(s.out) == 0 {
			continue // dropped with its link
		}
		e.flushLink(s)
		if len(s.out) > 0 {
			kept = append(kept, s)
			parked += len(s.out)
		}
	}
	e.dirty = kept
	e.parked.Store(int64(parked))
}

// flushLink moves s's queue on, from its head: to the wire from the turn
// itself while nothing is ahead of it (writeInline), into the ring while
// its lanes take it, and what a full lane refuses stays queued, in order.
// A full data lane never holds back control behind it in the queue, nor a
// full control lane data.
func (e *Engine) flushLink(s *sender) {
	q := s.out
	n := e.writeInline(s, q)
	n += e.pushOrWant(s, q[n:])
	// Nothing may read q[:n] any more: those messages are written and
	// released, or the sender goroutine owns them and may have done both
	// already. What stays needs no wake-up of its own: pushOrWant left the
	// sender goroutine a reason to wake the switch.
	k := 0
	var dataFull, ctrlFull bool
	for i, m := range q[n:] {
		full := &dataFull
		if m.IsControl() {
			full = &ctrlFull
		}
		// q[n] is what the ring just refused; a later message of the other
		// lane gets its own try.
		if i > 0 && !*full && e.pushOrWant(s, q[n+i:n+i+1]) == 1 {
			continue
		}
		*full = true
		q[k] = m
		k++
	}
	clear(q[k:])
	s.out = q[:k]
}

// ctrlQueued reports whether control waits in s's queue. It scans the whole
// queue: control queued behind this turn's data counts as much as control
// behind the parked backlog.
func (s *sender) ctrlQueued() bool {
	for _, m := range s.out {
		if m.IsControl() {
			return true
		}
	}
	return false
}

// pushOrWant pushes the leading messages of ms that s's ring takes, in
// order, and reports how many. What the ring refuses is tried once more
// after s.wanted goes up, so that a refusal the caller keeps always leaves
// the sender goroutine a reason to wake the switch: the second try fails
// only on a lane that was full after the flag went up, and the batch that
// drains it reads the flag.
func (e *Engine) pushOrWant(s *sender, ms []*message.Msg) int {
	n := s.ring.TryPushBatch(ms)
	if n < len(ms) {
		s.wanted.Store(true)
		n += s.ring.TryPushBatch(ms[n:])
	}
	return n
}

// writeInline writes the head of a link's queue from the turn itself,
// without waking the link's sender goroutine, and reports how many messages
// it disposed of. It writes only data ahead of the queue's first control
// message — control takes the ring's priority lane, and on a datagram link
// it rides the stream — and only when nothing is ahead of the queue and the
// write cannot wait:
//
//   - the link is up and its framing has a non-blocking write (s.inline):
//     stream framing on a connection with TryWriteBuffers, datagram framing
//     on an endpoint with WriteToBatch;
//   - no emulated cap paces it — link, uplink or total: a shaped link's
//     rate is the sender goroutine's to keep, and its backlog is the
//     back-pressure signal;
//   - the sender's ring is Idle — empty, and no batch popped and not yet
//     written: either would be overtaken.
//
// The turn is the ring's only producer, so an idle ring stays idle until
// the caller pushes the tail. A parked backlog leaves this way too, as soon
// as the sender goroutine has emptied the ring. What went out is metered,
// counted, released and credited as runSender would have; a bypassed
// message waited in no ring, and the data-lane delay histogram says so. A
// datagram send error costs the messages, as in the sender goroutine, never
// the link; a stream write error is left for the sender goroutine to find
// on the tail, so the link dies once, in runSender, with its loss
// accounting.
func (e *Engine) writeInline(s *sender, q []*message.Msg) int {
	if !s.dialed.Load() {
		return 0 // still dialing
	}
	w := s.inline
	if w == nil || w.capped() || !s.ring.Idle() {
		return 0
	}
	run := q
	for i, m := range q {
		if m.IsControl() {
			run = q[:i]
			break
		}
	}
	if len(run) == 0 {
		return 0
	}
	n, bytes, err := w.tryWrite(run)
	if n == 0 {
		return 0
	}
	if err != nil {
		e.counters.AddDroppedBatch(int64(n), bytes)
	} else {
		s.meter.Add(bytes)
		e.counters.AddOut(int64(n), bytes)
		e.sendBatchHist.Observe(int64(n))
		e.dataDelayHist.ObserveN(0, uint64(n))
		e.writtenInline.Add(uint64(n))
	}
	for _, m := range run[:n] {
		m.Release()
	}
	e.credit(bytes)
	return n
}

// forgetSender drops what the send path remembers about a link that died
// or was closed: the one-entry sender cache.
func (e *Engine) forgetSender(s *sender) {
	if e.lastSender == s {
		e.lastDest, e.lastSender = message.NodeID{}, nil
	}
}

// dropOut drops (or, for a graceful close, silently releases) what s's
// queue holds. The queue was flushed — every message in it is counted
// parked — as it is at the start of every turn.
func (e *Engine) dropOut(s *sender, countLost bool) {
	for _, m := range s.out {
		if countLost {
			e.counters.AddDropped(int64(m.WireLen()))
		}
		e.disown(m)
	}
	e.parked.Add(-int64(len(s.out)))
	clear(s.out)
	s.out = s.out[:0]
}

// receiverSnapshot lists the receivers in stable order. The list is
// rebuilt, into the same backing array, only when the receiver set has
// changed since the last call; the caller must not modify it. Token holder
// only: the switch pass is its one reader.
func (e *Engine) receiverSnapshot() []*receiver {
	if e.recvGen.Load() == e.recvListGen {
		return e.recvList
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := e.recvList[:0]
	for _, r := range e.receivers {
		rs = append(rs, r)
	}
	clear(rs[len(rs):cap(rs)]) // a departed receiver is not pinned
	slices.SortFunc(rs, func(a, b *receiver) int { return a.peer.Compare(b.peer) })
	e.recvList, e.recvListGen = rs, e.recvGen.Load()
	return rs
}

// processData hands one data message to Algorithm.Process, releasing it on
// Done. In debug builds a call made while nobody holds the turn token fails
// loudly.
func (e *Engine) processData(m *message.Msg) {
	e.assertTurn("data Process")
	if e.alg.Process(m) == Done {
		m.Release()
	}
}

// appSet is the data apps a link carries — one or two in practice — as a
// slice: a membership test is a scan of a few words, and a link's set
// costs no map.
type appSet []uint32

func (a appSet) has(app uint32) bool { return slices.Contains(a, app) }

func (a *appSet) add(app uint32) {
	if !a.has(app) {
		*a = append(*a, app)
	}
}

// remove deletes app from the set and reports whether it was there.
func (a *appSet) remove(app uint32) bool {
	i := slices.Index(*a, app)
	if i < 0 {
		return false
	}
	*a = slices.Delete(*a, i, i+1)
	return true
}
