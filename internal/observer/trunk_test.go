package observer_test

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/trace"
	"repro/internal/vnet"
)

func startProxy(t *testing.T, n *vnet.Network, id message.NodeID) *proxy.Proxy {
	t.Helper()
	p, err := proxy.New(proxy.Config{
		ID:        id,
		Observer:  obsID,
		Transport: engine.VNet{Net: n},
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	return p
}

// TestProxyTrunkFailureOrphansRelayedNodes is the end-to-end regression
// test for the dead-trunk bug: when a proxy trunk drops, every node that
// was reachable only through it must leave the alive/bootstrap set at
// once, and must re-register cleanly when the proxy comes back. The wait
// for them to leave is far below the observer's 5 s silence cutoff, so
// the only way the nodes can leave the alive set is by losing their
// route — exactly what the old code failed to do for relayed nodes.
func TestProxyTrunkFailureOrphansRelayedNodes(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	proxyID := message.MakeID("10.254.0.1", 9100)
	p := startProxy(t, n, proxyID)
	defer p.Stop()

	a := &tracker{}
	startNode(t, n, nid(1), proxyID, a)
	b := &tracker{}
	startNode(t, n, nid(2), proxyID, b)
	if !o.WaitForNodes(2, 5*time.Second) {
		t.Fatalf("observer sees %d nodes via proxy", len(o.Alive()))
	}

	// Kill the trunk. Both relayed nodes must drop out of the alive set
	// immediately — their only route died with the proxy.
	p.Stop()
	waitFor(t, 2*time.Second, "relayed nodes to leave the alive set", func() bool {
		return len(o.Alive()) == 0
	})

	// A node joining now must not be handed the orphaned nodes.
	late := &tracker{}
	startNode(t, n, nid(3), obsID, late)
	waitFor(t, 3*time.Second, "late joiner boot reply", func() bool {
		return late.count(protocol.TypeBootReply) > 0
	})
	late.mu.Lock()
	lateView := late.bootHosts
	late.mu.Unlock()
	if lateView != 0 {
		t.Errorf("boot reply after trunk death lists %d hosts, want 0", lateView)
	}

	// Restart the proxy: the nodes' observer links reconnect with backoff
	// and both must re-register and become bootstrappable again.
	p2 := startProxy(t, n, proxyID)
	defer p2.Stop()
	waitFor(t, 10*time.Second, "relayed nodes to re-register", func() bool {
		alive := o.Alive()
		found := 0
		for _, id := range alive {
			if id == nid(1) || id == nid(2) {
				found++
			}
		}
		return found == 2
	})
	// Commands route through the new trunk.
	waitFor(t, 5*time.Second, "command through the new trunk", func() bool {
		return o.Custom(nid(1), 1, 0, 0)
	})
}

// TestTimelineAggregation drives real traffic and checks the observer
// assembles the nodes' flight-recorder tails into a merged, ordered,
// renderable timeline with populated cluster histograms.
func TestTimelineAggregation(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	sink := &tracker{}
	startNode(t, n, nid(2), obsID, sink)
	src := &tracker{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	startNode(t, n, nid(1), obsID, src)
	o.WaitForNodes(2, 5*time.Second)
	o.Deploy(nid(1), 7, 200<<10, 2048)

	waitFor(t, 5*time.Second, "sink data", func() bool {
		return sink.ReceivedBytes(7) > 20<<10
	})
	waitFor(t, 5*time.Second, "switch events from the source", func() bool {
		for _, ev := range o.NodeEvents(nid(1)) {
			if ev.Kind == trace.KindSwitch {
				return true
			}
		}
		return false
	})

	tl := o.Timeline()
	if len(tl) == 0 {
		t.Fatal("merged timeline is empty")
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Event.Nanos < tl[i-1].Event.Nanos {
			t.Fatalf("timeline out of order at %d: %d after %d",
				i, tl[i].Event.Nanos, tl[i-1].Event.Nanos)
		}
	}
	txt := o.RenderTimeline()
	if !strings.Contains(txt, "switch") || !strings.Contains(txt, nid(1).String()) {
		t.Errorf("rendered timeline missing expected content:\n%s", txt)
	}
	raw, err := o.TimelineJSON()
	if err != nil {
		t.Fatalf("TimelineJSON: %v", err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	if len(decoded) != len(tl) {
		t.Errorf("JSON has %d events, timeline has %d", len(decoded), len(tl))
	}

	waitFor(t, 5*time.Second, "cluster data-lane histogram", func() bool {
		_, data := o.ClusterHists()
		return data.Count() > 0
	})
	if s := o.RenderHists(); !strings.Contains(s, "data lane:") {
		t.Errorf("RenderHists output malformed: %q", s)
	}
}

// TestStopInterruptsPeerTrunkAwaitingReply: a federation peer that accepts
// the trunk and never answers its hello must not hold Stop for the
// handshake deadline: Stop closes the peer loop's dialer.
func TestStopInterruptsPeerTrunkAwaitingReply(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	peer := message.MakeID("10.255.0.2", 9000)
	ln, err := n.Listen(peer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	o, err := observer.New(observer.Config{ID: obsID, Transport: engine.VNet{Net: n}, Peers: []message.NodeID{peer}})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	var c net.Conn
	select {
	case c = <-accepted:
		defer c.Close()
	case <-time.After(5 * time.Second):
		o.Stop()
		t.Fatal("the observer never dialed its peer")
	}
	// Once the hello is in, the peer loop is waiting for the reply.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	hello, err := message.Read(c, nil, 256)
	if err != nil {
		o.Stop()
		t.Fatalf("reading the trunk hello: %v", err)
	}
	hello.Release()
	stopped := make(chan struct{})
	go func() {
		o.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop still blocked 1 s after a mute peer took the trunk hello")
	}
}
