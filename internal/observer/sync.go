package observer

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// This file is the federation side of the observer: peer trunks between
// observers (riding the same hello/relay machinery proxies use), an
// anti-entropy sync of the seq-versioned registration table, and the
// merged-view plumbing that lets a node register with any federation
// member while bootstrap sets, commands, and monitoring keep working
// from every observer.
//
// Sync code runs on (or is called from) paths a node-facing connection may
// be waiting behind, so it must never block on a trunk: Link.Send is the
// only way onto one and cannot, and a dropped round is repaired by the
// next.

// Peer trunk redial delay bounds (capped doubling).
const (
	peerDialBase = 50 * time.Millisecond
	peerDialMax  = 2 * time.Second
)

// FederationStats counts federation activity, for tests and experiment
// logs.
type FederationStats struct {
	SyncsSent     int64 // anti-entropy payloads pushed onto peer trunks
	SyncsAbsorbed int64 // sync payloads merged from peers
}

// Federation returns a snapshot of the federation activity counters.
func (o *Observer) Federation() FederationStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fed
}

// Events returns the observer's own flight-recorder series (peer trunk
// transitions, absorbed sync rounds).
func (o *Observer) Events() []trace.Event {
	return o.rec.Snapshot()
}

// PeerTrunks lists the federation peers with a live trunk, sorted.
func (o *Observer) PeerTrunks() []message.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]message.NodeID, 0, len(o.peers))
	for id := range o.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// isPeerID reports whether id names a configured federation peer —
// observers must never enter the node table.
func (o *Observer) isPeerID(id message.NodeID) bool {
	for _, p := range o.cfg.Peers {
		if p == id {
			return true
		}
	}
	return false
}

// remoteAliveLocked reports whether a node without a direct route counts
// as alive in the merged view: not departed, homed at another observer,
// and that observer's liveness claim is fresh. Caller holds o.mu.
func (o *Observer) remoteAliveLocked(n *nodeState, cutoff time.Time) bool {
	return !n.departed && n.remoteAlive &&
		!n.home.IsZero() && n.home != o.cfg.ID &&
		n.lastSeen.After(cutoff)
}

// aliveLocal lists alive nodes homed at this observer, sorted.
func (o *Observer) aliveLocal() []message.NodeID {
	cutoff := time.Now().Add(-staleAfter)
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]message.NodeID, 0, len(o.nodes))
	for id, n := range o.nodes {
		if n.out != nil && n.lastSeen.After(cutoff) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// ----- peer trunks -----

// peerDialLoop maintains an outbound trunk to one federation peer,
// redialing with capped-doubling backoff for as long as the observer
// runs; Stop closes d, which ends the loop's handshake in flight and every
// later one. Both sides of a peering dial; duplicate trunks are benign
// (each side pushes on whichever trunk registered last and reads both).
// Peers bypass each other's gates, so no Busy hint paces the redials.
func (o *Observer) peerDialLoop(peer message.NodeID, d *engine.Dialer) {
	defer o.wg.Done()
	delay := peerDialBase
	for {
		conn, _, err := d.Dial(o.cfg.Transport, o.cfg.ID.Addr(), peer.Addr(), o.hello,
			admission.DefaultHelloTimeout)
		if err != nil {
			select {
			case <-o.done:
				return
			case <-time.After(delay):
			}
			delay = min(2*delay, peerDialMax)
			continue
		}
		delay = peerDialBase
		out := o.newRoute(conn, protocol.HelloObserver)
		if out == nil {
			return
		}
		o.runPeerTrunk(out, peer)
		o.untrack(out)
	}
}

// runPeerTrunk services one established federation trunk (either the
// dialed or the accepted side): registers it for outbound pushes, seeds
// the peer with an immediate full sync, and absorbs inbound federation
// traffic until the conn dies.
func (o *Observer) runPeerTrunk(out *route, peer message.NodeID) {
	o.registerPeer(peer, out)
	o.syncTo(out) // converge a (re)connecting peer immediately
	for {
		m, err := out.link.Read()
		if err != nil {
			o.markPeerGone(peer, out)
			return
		}
		o.handlePeerMsg(m, peer)
	}
}

// registerPeer installs out as the trunk for pushes toward peer. A
// superseded trunk is left open — it may be the other side's dialed
// trunk, and closing it would make the two observers churn each other's
// connections forever; dead trunks clean themselves up via markPeerGone.
func (o *Observer) registerPeer(peer message.NodeID, out *route) {
	o.mu.Lock()
	o.peers[peer] = out
	o.mu.Unlock()
	o.rec.Emit(trace.KindLinkUp, peer, protocol.HelloObserver, 1)
}

// markPeerGone retires a dead trunk, by pointer so a superseded trunk's
// death cannot unregister its replacement.
func (o *Observer) markPeerGone(peer message.NodeID, out *route) {
	o.mu.Lock()
	if o.peers[peer] == out {
		delete(o.peers, peer)
	}
	o.mu.Unlock()
	o.rec.Emit(trace.KindLinkDown, peer, protocol.HelloObserver, 1)
}

// handlePeerMsg processes one message from a peer observer's trunk.
func (o *Observer) handlePeerMsg(m *message.Msg, peer message.NodeID) {
	defer m.Release()
	switch m.Type() {
	case protocol.TypeObsSync:
		s, err := protocol.DecodeObsSync(m.Payload())
		if err != nil {
			return
		}
		changed := o.absorbSync(s)
		o.rec.Emit(trace.KindObsSync, s.Origin, 0, int64(changed))
	case protocol.TypeReport:
		// A report federated from the node's home observer: absorb the
		// monitoring data without touching routing state — the node is
		// not reachable over this trunk.
		rp, err := protocol.DecodeReport(m.Payload())
		if err != nil {
			return
		}
		from := m.Sender()
		if from.IsZero() || from == o.cfg.ID || o.isPeerID(from) {
			return
		}
		o.mu.Lock()
		n, ok := o.nodes[from]
		if !ok {
			n = &nodeState{id: from}
			o.nodes[from] = n
		}
		n.lastReport = rp
		n.hasReport = true
		n.absorbEvents(rp.Events)
		o.mu.Unlock()
	case protocol.TypeRelay:
		// A command federated from a peer for a node homed here. Deliver
		// over the local route only — never re-relay to another observer,
		// so a stale home pointer cannot form a forwarding loop.
		rl, err := protocol.DecodeRelay(m.Payload())
		if err != nil {
			return
		}
		fwd, err := message.Read(bytes.NewReader(rl.Inner), nil, message.DefaultMaxPayload)
		if err != nil {
			return
		}
		o.mu.Lock()
		var dst *route
		if n, ok := o.nodes[rl.Dest]; ok {
			dst = n.out
		}
		o.mu.Unlock()
		o.sendRoute(dst, rl.Dest, fwd)
	}
}

// fanoutReport forwards a node's raw report message to every live peer
// trunk. It borrows m (retaining per trunk) and never blocks: a full
// trunk drops the report, and the next one repairs the peer's view.
func (o *Observer) fanoutReport(m *message.Msg) {
	o.mu.Lock()
	if len(o.peers) == 0 {
		o.mu.Unlock()
		return
	}
	trunks := make([]*route, 0, len(o.peers))
	for _, p := range o.peers {
		trunks = append(trunks, p)
	}
	o.mu.Unlock()
	for _, tr := range trunks {
		m.Retain()
		if !tr.link.Send(m) {
			m.Release()
		}
	}
}

// ----- anti-entropy -----

// buildSync snapshots the full membership table as versioned entries.
func (o *Observer) buildSync() protocol.ObsSync {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := protocol.ObsSync{Origin: o.cfg.ID}
	if len(o.nodes) == 0 {
		return s
	}
	s.Entries = make([]protocol.MemberEntry, 0, len(o.nodes))
	for id, n := range o.nodes {
		e := protocol.MemberEntry{Node: id, Home: n.home, Seq: n.seq, Departed: n.departed}
		if n.home == o.cfg.ID {
			e.Alive = n.out != nil
		} else {
			e.Alive = n.remoteAlive
		}
		s.Entries = append(s.Entries, e)
	}
	return s
}

// syncTo pushes one full-table sync onto one federation trunk.
func (o *Observer) syncTo(out *route) {
	s := o.buildSync()
	if len(s.Entries) == 0 {
		return
	}
	m := message.New(protocol.TypeObsSync, o.cfg.ID, 0, 0, s.Encode())
	if out.link.Send(m) {
		o.mu.Lock()
		o.fed.SyncsSent++
		o.mu.Unlock()
	} else {
		m.Release()
	}
}

// syncLoop pushes anti-entropy rounds to every live peer trunk at the
// configured interval. Full-table rounds keep the protocol stateless: a
// dropped or reordered payload is repaired by the next tick.
func (o *Observer) syncLoop() {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			o.mu.Lock()
			trunks := make([]*route, 0, len(o.peers))
			for _, p := range o.peers {
				trunks = append(trunks, p)
			}
			o.mu.Unlock()
			for _, tr := range trunks {
				o.syncTo(tr)
			}
		case <-o.done:
			return
		}
	}
}

// absorbSync merges one peer's table into ours and returns how many
// entries changed. Merge rules:
//
//   - Higher seq wins. Only home observers bump seqs (at register, route
//     loss, and departure), so adopting a higher version is adopting the
//     newest home's claim.
//   - If a peer claims a node we still hold a live direct route to, our
//     conn is ground truth: we out-version the claim instead of adopting
//     it. The node flapped back to us (or the peer's entry is stale); if
//     our conn is in fact dead, its reader will notice, markRouteGone
//     will bump the seq again, and the federation converges on the peer.
//   - lastSeen refreshes only on claims asserted by the entry's own home
//     observer (sync.Origin == entry.Home). Third-party echoes never
//     refresh liveness, so a dead observer's nodes go stale everywhere
//     at the same rate they would have gone stale at their home. This
//     leans on the full-mesh assumption documented on Config.Peers.
func (o *Observer) absorbSync(s protocol.ObsSync) int {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fed.SyncsAbsorbed++
	changed := 0
	for _, e := range s.Entries {
		if e.Node.IsZero() || e.Node == o.cfg.ID || o.isPeerID(e.Node) {
			continue
		}
		n, ok := o.nodes[e.Node]
		if !ok {
			n = &nodeState{id: e.Node}
			o.nodes[e.Node] = n
		}
		fromHome := e.Home == s.Origin
		switch {
		case e.Seq <= n.seq:
			if e.Seq == n.seq && fromHome && e.Alive && n.home == e.Home && n.out == nil {
				// Same-version heartbeat from the asserting home:
				// refresh staleness without counting it as a change.
				n.lastSeen = now
			}
		case n.out != nil && e.Home != o.cfg.ID:
			n.seq = e.Seq + 1
			n.home = o.cfg.ID
			n.departed = false
			changed++
		default:
			n.seq = e.Seq
			if n.out == nil {
				n.home = e.Home
				n.remoteAlive = e.Alive
				n.departed = e.Departed
				if fromHome && e.Alive {
					n.lastSeen = now
				}
			}
			changed++
		}
	}
	return changed
}
