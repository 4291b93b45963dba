package observer

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
)

// Command sends an arbitrary control message to a node; the building
// block of the observer's control panel. It reports whether a route to
// the node existed. A node homed at a federation peer is reached by
// relaying the command over that peer's trunk; the home observer unwraps
// it and delivers over the node's direct route.
func (o *Observer) Command(dest message.NodeID, typ message.Type, payload []byte) bool {
	o.mu.Lock()
	var out *route
	if n, ok := o.nodes[dest]; ok {
		out = n.out
		if out == nil && !n.departed && !n.home.IsZero() && n.home != o.cfg.ID {
			out = o.peers[n.home]
		}
	}
	o.mu.Unlock()
	if out == nil {
		return false
	}
	o.sendRoute(out, dest, message.New(typ, o.cfg.ID, 0, 0, payload))
	return true
}

// Deploy starts an application data source on a node (the sDeploy
// command).
func (o *Observer) Deploy(node message.NodeID, app uint32, rate int64, msgSize uint32) bool {
	return o.Command(node, protocol.TypeDeploy,
		protocol.Deploy{App: app, Rate: rate, MsgSize: msgSize}.Encode())
}

// TerminateApp stops an application source (the sTerminate command).
func (o *Observer) TerminateApp(node message.NodeID, app uint32) bool {
	return o.Command(node, protocol.TypeTerminateApp,
		protocol.Deploy{App: app}.Encode())
}

// TerminateNode asks a node to terminate gracefully.
func (o *Observer) TerminateNode(node message.NodeID) bool {
	return o.Command(node, protocol.TypeTerminateNode, nil)
}

// Depart asks a node to leave the overlay gracefully: the node
// deregisters with the observer, drains its queued outgoing messages,
// and only then shuts down — the paper's departure, distinct from both
// a crash and an immediate termination.
func (o *Observer) Depart(node message.NodeID) bool {
	return o.Command(node, protocol.TypeDepart, nil)
}

// SetBandwidth adjusts a node's emulated bandwidth at runtime, producing
// or relieving artificial bottlenecks on the fly.
func (o *Observer) SetBandwidth(node message.NodeID, cmd protocol.SetBandwidth) bool {
	return o.Command(node, protocol.TypeSetBandwidth, cmd.Encode())
}

// Join asks a node to join an application session, optionally via a
// contact node already in the session.
func (o *Observer) Join(node message.NodeID, app uint32, contact message.NodeID) bool {
	return o.Command(node, protocol.TypeJoin,
		protocol.Join{App: app, Contact: contact}.Encode())
}

// Leave asks a node to leave an application session.
func (o *Observer) Leave(node message.NodeID, app uint32) bool {
	return o.Command(node, protocol.TypeLeave, protocol.Join{App: app}.Encode())
}

// Custom sends an algorithm-specific control message with two integer
// parameters, as the paper's observer supports.
func (o *Observer) Custom(node message.NodeID, kind uint32, p1, p2 int64) bool {
	return o.Command(node, protocol.TypeCustom,
		protocol.Custom{Kind: kind, P1: p1, P2: p2}.Encode())
}

// PushMembership sends a node an unsolicited bootstrap reply carrying the
// currently alive membership, refreshing views that went stale because
// the node bootstrapped before its peers arrived.
func (o *Observer) PushMembership(node message.NodeID) bool {
	hosts := o.Alive()
	filtered := hosts[:0]
	for _, h := range hosts {
		if h != node {
			filtered = append(filtered, h)
		}
	}
	return o.Command(node, protocol.TypeBootReply,
		protocol.BootReply{Hosts: filtered}.Encode())
}

// RequestStatus asks one node for an immediate status update.
func (o *Observer) RequestStatus(node message.NodeID) bool {
	return o.Command(node, protocol.TypeRequest, nil)
}

// ----- queries -----

// Nodes lists every node ever seen, sorted.
func (o *Observer) Nodes() []message.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]message.NodeID, 0, len(o.nodes))
	for id := range o.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Alive lists nodes alive in the merged federation view, sorted: nodes
// with a live local route and recent traffic, plus nodes whose home
// observer's synced liveness claim is still fresh.
func (o *Observer) Alive() []message.NodeID {
	cutoff := time.Now().Add(-staleAfter)
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]message.NodeID, 0, len(o.nodes))
	for id, n := range o.nodes {
		if (n.out != nil && n.lastSeen.After(cutoff)) || o.remoteAliveLocked(n, cutoff) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Departed lists nodes that deregistered gracefully (and have not come
// back), sorted — the monitoring distinction between departure and
// failure.
func (o *Observer) Departed() []message.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]message.NodeID, 0, len(o.nodes))
	for id, n := range o.nodes {
		if n.departed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Status returns the latest report from a node.
func (o *Observer) Status(node message.NodeID) (protocol.Report, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[node]
	if !ok || !n.hasReport {
		return protocol.Report{}, false
	}
	return n.lastReport, true
}

// Traces returns a copy of the central trace log.
func (o *Observer) Traces() []TraceRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]TraceRecord, len(o.traces))
	copy(out, o.traces)
	return out
}

// Edge is one directed overlay link with its measured throughput.
type Edge struct {
	From, To message.NodeID
	Rate     float64 // bytes per second
}

// Topology assembles the current overlay topology from the latest status
// reports — what the GUI would draw on the map.
func (o *Observer) Topology() []Edge {
	o.mu.Lock()
	defer o.mu.Unlock()
	var edges []Edge
	for id, n := range o.nodes {
		if !n.hasReport {
			continue
		}
		for _, l := range n.lastReport.Downstream {
			if l.Peer == o.cfg.ID {
				continue // the observer link is not overlay topology
			}
			edges = append(edges, Edge{From: id, To: l.Peer, Rate: l.Rate})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From.Less(edges[j].From)
		}
		return edges[i].To.Less(edges[j].To)
	})
	return edges
}

// RenderTopology formats the topology as indented text, the headless
// replacement for the map view.
func (o *Observer) RenderTopology() string {
	var b strings.Builder
	for _, e := range o.Topology() {
		fmt.Fprintf(&b, "%s -> %s  %.1f KBps\n", e.From, e.To, e.Rate/1024)
	}
	return b.String()
}

// WaitForNodes blocks until at least n nodes are alive or the timeout
// expires, reporting success; experiment harnesses use it to gate on
// bootstrap completion.
func (o *Observer) WaitForNodes(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(o.Alive()) >= n {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return len(o.Alive()) >= n
}
