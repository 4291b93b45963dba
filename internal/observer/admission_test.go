package observer_test

import (
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// TestObserverShedsStormButServesRegisteredNodes saturates the observer's
// handshake tokens (Config.Admission reaches the gate) with half-open
// connections and checks the part that is the observer's own: a node that
// registered before the storm keeps being served through it. The refusal
// frame and the accounting are TestFrontDoorConformance's.
func TestObserverShedsStormButServesRegisteredNodes(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n, func(c *observer.Config) {
		c.Admission = admission.Config{MaxHandshakes: 2, SourceRate: 1000, SourceBurst: 1000}
	})
	alg := &tracker{}
	startNode(t, n, nid(1), obsID, alg)
	waitFor(t, 5*time.Second, "node registered", func() bool {
		return len(o.Alive()) == 1
	})

	for i := 0; i < 2; i++ {
		conn, err := n.DialFrom("10.0.9.1:1", obsID.Addr())
		if err != nil {
			t.Fatalf("half-open dial %d: %v", i, err)
		}
		defer conn.Close()
	}
	waitFor(t, 5*time.Second, "handshake tokens saturated", func() bool {
		return o.Admission().InFlight == 2
	})
	refused, err := n.DialFrom("10.0.9.2:1", obsID.Addr())
	if err != nil {
		t.Fatalf("storm dial: %v", err)
	}
	defer refused.Close()
	waitFor(t, 5*time.Second, "the storm dial to be shed", func() bool {
		return o.Admission().ShedBusy >= 1
	})

	// The registered node's status flow is untouched by the storm: a
	// report requested after the tokens ran out still arrives.
	before := alg.count(protocol.TypeRequest)
	waitFor(t, 5*time.Second, "status requests keep flowing", func() bool {
		_, ok := o.Status(nid(1))
		return ok && alg.count(protocol.TypeRequest) > before
	})
}

// TestObserverFederationPeersBypassTheGate cuts the gate to zero
// practical capacity and checks a federation peer's trunk still comes up:
// a node storm must never partition the observer tier.
func TestObserverFederationPeersBypassTheGate(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	obsA := message.MakeID("10.255.0.1", 9000)
	obsB := message.MakeID("10.255.0.2", 9000)

	cfgFor := func(id, peer message.NodeID) func(*observer.Config) {
		return func(c *observer.Config) {
			c.ID = id
			c.Peers = []message.NodeID{peer}
			// Strangers get one connection, ever.
			c.Admission = admission.Config{MaxHandshakes: 1, SourceRate: 0.001, SourceBurst: 1}
			c.SyncInterval = 20 * time.Millisecond
		}
	}
	a := startObserver(t, n, cfgFor(obsA, obsB))
	// Exhaust A's stranger capacity before B even exists.
	for i := 0; i < 3; i++ {
		if conn, err := n.DialFrom("10.0.9.1:1", obsA.Addr()); err == nil {
			defer conn.Close()
		}
	}
	b := startObserver(t, n, cfgFor(obsB, obsA))

	waitFor(t, 10*time.Second, "federation trunks up despite the saturated gate", func() bool {
		return len(a.PeerTrunks()) == 1 && len(b.PeerTrunks()) == 1
	})
}
