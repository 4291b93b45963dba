package observer

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file is the observer side of the flight-recorder pipeline: each
// status report carries the node's recent structured events and lane
// histograms; the observer accumulates the per-node series and merges them
// into one cross-node timeline — the headless replacement for watching a
// churn or overload experiment unfold on the GUI map.

// absorbEvents appends the report's event tail to the node's series,
// dropping anything already retained (reports can overlap when a node is
// re-asked before new events accrue). Caller holds o.mu.
func (n *nodeState) absorbEvents(evs []trace.Event) {
	for _, ev := range evs {
		if ev.Seq <= n.lastEventSeq {
			continue
		}
		n.events = append(n.events, ev)
		n.lastEventSeq = ev.Seq
	}
	if len(n.events) > maxNodeEvents {
		keep := len(n.events) - maxNodeEvents/2
		n.events = append(n.events[:0], n.events[keep:]...)
	}
}

// TimelineEvent is one flight-recorder event attributed to its node.
type TimelineEvent struct {
	Node  message.NodeID
	Event trace.Event
}

// NodeEvents returns the retained event series of one node in sequence
// order.
func (o *Observer) NodeEvents(id message.NodeID) []trace.Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[id]
	if !ok || len(n.events) == 0 {
		return nil
	}
	out := make([]trace.Event, len(n.events))
	copy(out, n.events)
	return out
}

// Timeline merges every node's retained events into one series ordered by
// timestamp (ties broken by node, then sequence) — the cross-node view
// that lines a reparent on one node up with the link failure on another
// that caused it.
func (o *Observer) Timeline() []TimelineEvent {
	o.mu.Lock()
	var merged []TimelineEvent
	for id, n := range o.nodes {
		for _, ev := range n.events {
			merged = append(merged, TimelineEvent{Node: id, Event: ev})
		}
	}
	o.mu.Unlock()
	// The observer's own recorder (peer trunk transitions, sync rounds)
	// joins the merged series under the observer's ID, so a node-side
	// failover lines up with the observer death that caused it.
	for _, ev := range o.rec.Snapshot() {
		merged = append(merged, TimelineEvent{Node: o.cfg.ID, Event: ev})
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Event.Nanos != b.Event.Nanos {
			return a.Event.Nanos < b.Event.Nanos
		}
		if a.Node != b.Node {
			return a.Node.Less(b.Node)
		}
		return a.Event.Seq < b.Event.Seq
	})
	return merged
}

// RenderTimeline formats the merged timeline as one text line per event.
func (o *Observer) RenderTimeline() string {
	var b strings.Builder
	for _, te := range o.Timeline() {
		ev := te.Event
		when := time.Unix(0, ev.Nanos).UTC().Format("15:04:05.000000")
		fmt.Fprintf(&b, "%s %-15s %-11s", when, te.Node, trace.KindName(ev.Kind))
		if !ev.Peer.IsZero() {
			fmt.Fprintf(&b, " peer=%s", ev.Peer)
		}
		if ev.App != 0 {
			fmt.Fprintf(&b, " app=%d", ev.App)
		}
		fmt.Fprintf(&b, " value=%d\n", ev.Value)
	}
	return b.String()
}

// timelineJSONEvent is the JSON shape of one timeline entry; the kind is
// rendered by name so dumps are self-describing.
type timelineJSONEvent struct {
	Node  string `json:"node"`
	Nanos int64  `json:"nanos"`
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	Peer  string `json:"peer,omitempty"`
	App   uint32 `json:"app,omitempty"`
	Value int64  `json:"value"`
}

// TimelineJSON renders the merged timeline as a JSON array.
func (o *Observer) TimelineJSON() ([]byte, error) {
	tl := o.Timeline()
	out := make([]timelineJSONEvent, 0, len(tl))
	for _, te := range tl {
		je := timelineJSONEvent{
			Node:  te.Node.String(),
			Nanos: te.Event.Nanos,
			Seq:   te.Event.Seq,
			Kind:  trace.KindName(te.Event.Kind),
			App:   te.Event.App,
			Value: te.Event.Value,
		}
		if !te.Event.Peer.IsZero() {
			je.Peer = te.Event.Peer.String()
		}
		out = append(out, je)
	}
	return json.MarshalIndent(out, "", "  ")
}

// ClusterHists merges the latest per-lane queue-delay histograms across
// every reporting node — the cluster-wide delay distribution the QoS
// section of EXPERIMENTS.md plots.
func (o *Observer) ClusterHists() (ctrl, data metrics.HistogramSnapshot) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.nodes {
		if !n.hasReport {
			continue
		}
		ctrl.Merge(n.lastReport.QueueCtrlHist)
		data.Merge(n.lastReport.QueueDataHist)
	}
	return ctrl, data
}

// ShardLoad aggregates the switch occupancy counters of every reporting
// node, per entry index of the report's section: how much the switches
// are working (switched) and holding (queued in receiver rings, parked).
// Engines report one entry, index 0, with the handoff fields zero.
type ShardLoad struct {
	Shard        uint32
	Switched     uint64
	Queued       uint64
	Parked       uint64
	HandoffDepth uint64
	HandoffPeak  uint32 // deepest single-node handoff backlog observed
	Nodes        int    // nodes reporting this shard index
}

// ShardLoads merges the latest switch occupancy sections across every
// reporting node, keyed by entry index. Nodes predating the section
// simply contribute nothing.
func (o *Observer) ShardLoads() []ShardLoad {
	o.mu.Lock()
	defer o.mu.Unlock()
	byIdx := make(map[uint32]*ShardLoad)
	for _, n := range o.nodes {
		if !n.hasReport {
			continue
		}
		for _, s := range n.lastReport.Shards {
			l := byIdx[s.Shard]
			if l == nil {
				l = &ShardLoad{Shard: s.Shard}
				byIdx[s.Shard] = l
			}
			l.Switched += s.Switched
			l.Queued += uint64(s.Queued)
			l.Parked += uint64(s.Parked)
			l.HandoffDepth += uint64(s.HandoffDepth)
			if s.HandoffPeak > l.HandoffPeak {
				l.HandoffPeak = s.HandoffPeak
			}
			l.Nodes++
		}
	}
	out := make([]ShardLoad, 0, len(byIdx))
	for _, l := range byIdx {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// RenderHists formats the cluster-wide queue-delay distributions with
// their 50th/99th percentile upper bounds in nanoseconds, followed by
// the switch occupancy when any node reports one.
func (o *Observer) RenderHists() string {
	ctrl, data := o.ClusterHists()
	var b strings.Builder
	fmt.Fprintf(&b, "ctrl lane: n=%d p50<%dns p99<%dns %s\n",
		ctrl.Count(), ctrl.Quantile(0.5), ctrl.Quantile(0.99), ctrl.String())
	fmt.Fprintf(&b, "data lane: n=%d p50<%dns p99<%dns %s\n",
		data.Count(), data.Quantile(0.5), data.Quantile(0.99), data.String())
	for _, l := range o.ShardLoads() {
		fmt.Fprintf(&b, "shard %d: nodes=%d switched=%d queued=%d parked=%d handoff=%d peak=%d\n",
			l.Shard, l.Nodes, l.Switched, l.Queued, l.Parked, l.HandoffDepth, l.HandoffPeak)
	}
	return b.String()
}
