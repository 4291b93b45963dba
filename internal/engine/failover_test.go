package engine_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vnet"
)

func startObs(t *testing.T, n *vnet.Network, id message.NodeID) *observer.Observer {
	t.Helper()
	o, err := observer.New(observer.Config{
		ID:              id,
		Transport:       engine.VNet{Net: n},
		RequestInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("observer.New(%s): %v", id, err)
	}
	if err := o.Start(); err != nil {
		t.Fatalf("observer.Start(%s): %v", id, err)
	}
	t.Cleanup(o.Stop)
	return o
}

// TestObserverFailoverReRegisters kills a node's observer and requires the
// engine to rotate to the next configured address, re-register under the
// same NodeID, and account the switch: one failover counter tick and one
// obs-failover trace event naming the new target.
func TestObserverFailoverReRegisters(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	idA := message.MakeID("10.255.0.1", 9000)
	idB := message.MakeID("10.255.0.2", 9000)
	oa := startObs(t, n, idA)
	ob := startObs(t, n, idB)

	alg := &recorder{}
	e := startTimedNode(t, n, nid(1), alg, engine.Timing{RetryMax: 40 * time.Millisecond}, func(c *engine.Config) {
		c.Observers = []message.NodeID{idA, idB}
		c.StatusInterval = 25 * time.Millisecond
		c.RetryBase = 10 * time.Millisecond
	})
	// A move counts as a failover only away from an observer that admitted
	// the node: wait for A's reply to the Boot, which follows its Welcome.
	waitFor(t, 5*time.Second, "node registered at A", func() bool {
		a := oa.Alive()
		return len(a) == 1 && a[0] == nid(1) && alg.count(protocol.TypeBootReply) > 0
	})
	if got := e.Observer(); got != idA {
		t.Fatalf("engine targets %s, want primary %s", got, idA)
	}

	oa.Stop()
	waitFor(t, 10*time.Second, "node re-registered at B", func() bool {
		a := ob.Alive()
		return len(a) == 1 && a[0] == nid(1)
	})
	if got := e.Observer(); got != idB {
		t.Fatalf("engine targets %s after failover, want %s", got, idB)
	}
	waitFor(t, 2*time.Second, "failover counted", func() bool {
		return e.Counters().Failovers == 1
	})
	found := false
	for _, ev := range e.Events() {
		if ev.Kind == trace.KindObsFailover && ev.Peer == idB {
			found = true
		}
	}
	if !found {
		t.Fatal("no obs-failover trace event naming the new target")
	}
	// B keeps getting fresh reports from the failed-over node.
	if _, ok := ob.Status(nid(1)); !ok {
		waitFor(t, 2*time.Second, "report at B", func() bool {
			_, ok := ob.Status(nid(1))
			return ok
		})
	}
}

// TestObserverFailbackAfterFlap: after failing over, the node treats the
// observer list as a ring — when the current observer dies too, it rotates
// back to the (revived) primary and re-registers there.
func TestObserverFailbackAfterFlap(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	idA := message.MakeID("10.255.0.1", 9000)
	idB := message.MakeID("10.255.0.2", 9000)
	oa := startObs(t, n, idA)
	ob := startObs(t, n, idB)

	alg := &recorder{}
	e := startTimedNode(t, n, nid(1), alg, engine.Timing{RetryMax: 40 * time.Millisecond}, func(c *engine.Config) {
		c.Observers = []message.NodeID{idA, idB}
		c.StatusInterval = 25 * time.Millisecond
		c.RetryBase = 10 * time.Millisecond
	})
	// Each observer must have admitted the node before it is killed, or
	// leaving it is not a failover (see TestObserverFailoverReRegisters).
	waitFor(t, 5*time.Second, "node registered at A", func() bool {
		return len(oa.Alive()) == 1 && alg.count(protocol.TypeBootReply) >= 1
	})
	oa.Stop()
	// The counter says B's registration counted, so killing B next is a
	// second failover.
	waitFor(t, 10*time.Second, "failover to B", func() bool {
		return len(ob.Alive()) == 1 && alg.count(protocol.TypeBootReply) >= 2 &&
			e.Counters().Failovers == 1
	})

	// Revive A under the same identity, then kill B: the ring rotation
	// must bring the node home promptly — the reset-on-success backoff
	// means the earlier outage does not linger as a max-backoff penalty.
	oa2 := startObs(t, n, idA)
	ob.Stop()
	waitFor(t, 10*time.Second, "failback to revived A", func() bool {
		a := oa2.Alive()
		return len(a) == 1 && a[0] == nid(1)
	})
	waitFor(t, 2*time.Second, "second failover counted", func() bool {
		return e.Counters().Failovers == 2
	})
	if got := e.Observer(); got != idA {
		t.Fatalf("engine targets %s after failback, want %s", got, idA)
	}
}
