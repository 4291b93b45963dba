package observer

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// newBareObserver builds an observer without starting it, for white-box
// tests that populate the node table directly.
func newBareObserver(t *testing.T) *Observer {
	t.Helper()
	n := vnet.New()
	t.Cleanup(n.Close)
	o, err := New(Config{
		ID:        message.MakeID("10.255.0.1", 9000),
		Transport: engine.VNet{Net: n},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o
}

func inid(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.0.%d", i), 7000)
}

// TestBootstrapSetShufflesSmallOverlays is the regression test for the
// fixed sampling bug: with fewer alive nodes than BootstrapCount the old
// code skipped the shuffle entirely, so every joiner in a small overlay
// received the identical sorted host list and always contacted the same
// first node. The reply order must vary across draws.
func TestBootstrapSetShufflesSmallOverlays(t *testing.T) {
	o := newBareObserver(t)
	rt := &route{}
	const nodes = 4 // well under DefaultBootstrapCount (8): no truncation
	for i := 1; i <= nodes; i++ {
		id := inid(i)
		o.nodes[id] = &nodeState{id: id, out: rt}
	}
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		set := o.bootstrapSet(message.NodeID{})
		if len(set) != nodes {
			t.Fatalf("bootstrapSet returned %d hosts, want %d", len(set), nodes)
		}
		seen[fmt.Sprint(set)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 bootstrap draws over %d nodes produced a single ordering: %v",
			nodes, seen)
	}
}

// TestMarkRouteGoneClearsRelayedNodes is the regression test for the
// dead-trunk bug: nodes registered over a proxy trunk share the trunk's
// route, and when the trunk drops every one of them must lose its route —
// not just the direct peer the connection belonged to. Nodes on other
// routes are untouched.
func TestMarkRouteGoneClearsRelayedNodes(t *testing.T) {
	o := newBareObserver(t)
	trunk := &route{proxy: true}
	direct := &route{}
	relayed1, relayed2, other := inid(1), inid(2), inid(3)
	o.nodes[relayed1] = &nodeState{id: relayed1, out: trunk}
	o.nodes[relayed2] = &nodeState{id: relayed2, out: trunk}
	o.nodes[other] = &nodeState{id: other, out: direct}

	o.markRouteGone(trunk)

	if o.nodes[relayed1].out != nil || o.nodes[relayed2].out != nil {
		t.Error("relayed nodes kept a route after their trunk dropped")
	}
	if o.nodes[other].out != direct {
		t.Error("node on an unrelated route lost it")
	}
	if set := o.bootstrapSet(message.NodeID{}); len(set) != 1 || set[0] != other {
		t.Errorf("bootstrapSet after trunk loss = %v, want just %v", set, other)
	}
}

// TestAbsorbEventsDedupesAndBounds covers the report-overlap dedupe and
// the per-node retention cap.
func TestAbsorbEventsDedupesAndBounds(t *testing.T) {
	n := &nodeState{}
	mk := func(lo, hi uint64) []trace.Event {
		evs := make([]trace.Event, 0, hi-lo+1)
		for s := lo; s <= hi; s++ {
			evs = append(evs, trace.Event{Seq: s, Nanos: int64(s), Kind: trace.KindSwitch})
		}
		return evs
	}
	n.absorbEvents(mk(1, 10))
	n.absorbEvents(mk(5, 15)) // overlap: 5..10 must not duplicate
	if len(n.events) != 15 {
		t.Fatalf("retained %d events, want 15", len(n.events))
	}
	for i, ev := range n.events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("events[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	n.absorbEvents(mk(16, maxNodeEvents+100))
	if len(n.events) > maxNodeEvents {
		t.Errorf("retained %d events, cap is %d", len(n.events), maxNodeEvents)
	}
	if last := n.events[len(n.events)-1].Seq; last != maxNodeEvents+100 {
		t.Errorf("newest retained seq = %d, want %d", last, maxNodeEvents+100)
	}
}
