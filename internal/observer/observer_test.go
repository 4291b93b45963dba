package observer_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/vnet"
)

func nid(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.0.%d", i), 7000)
}

var obsID = message.MakeID("10.255.0.1", 9000)

func startObserver(t *testing.T, n *vnet.Network, mut ...func(*observer.Config)) *observer.Observer {
	t.Helper()
	cfg := observer.Config{
		ID:              obsID,
		Transport:       engine.VNet{Net: n},
		RequestInterval: 100 * time.Millisecond,
	}
	for _, m := range mut {
		m(&cfg)
	}
	o, err := observer.New(cfg)
	if err != nil {
		t.Fatalf("observer.New: %v", err)
	}
	if err := o.Start(); err != nil {
		t.Fatalf("observer.Start: %v", err)
	}
	t.Cleanup(o.Stop)
	return o
}

// tracker is a forwarder that also remembers which control types arrived.
type tracker struct {
	multicast.Forwarder
	mu        sync.Mutex
	types     map[message.Type]int
	joins     []protocol.Join
	bootHosts int
}

func (r *tracker) Process(m *message.Msg) engine.Verdict {
	r.mu.Lock()
	if r.types == nil {
		r.types = make(map[message.Type]int)
	}
	r.types[m.Type()]++
	if m.Type() == protocol.TypeJoin {
		if j, err := protocol.DecodeJoin(m.Payload()); err == nil {
			r.joins = append(r.joins, j)
		}
	}
	if m.Type() == protocol.TypeBootReply {
		if br, err := protocol.DecodeBootReply(m.Payload()); err == nil {
			r.bootHosts = len(br.Hosts)
		}
	}
	r.mu.Unlock()
	return r.Forwarder.Process(m)
}

func (r *tracker) count(t message.Type) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.types[t]
}

func startNode(t *testing.T, n *vnet.Network, id, obs message.NodeID, alg engine.Algorithm) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{
		ID:             id,
		Transport:      engine.VNet{Net: n},
		Algorithm:      alg,
		Observers:      []message.NodeID{obs},
		StatusInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("engine.New(%s): %v", id, err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("engine.Start(%s): %v", id, err)
	}
	t.Cleanup(e.Stop)
	return e
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBootstrapAndAliveness(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	const count = 5
	algs := make([]*tracker, count)
	for i := 0; i < count; i++ {
		algs[i] = &tracker{}
		startNode(t, n, nid(i+1), obsID, algs[i])
	}
	if !o.WaitForNodes(count, 5*time.Second) {
		t.Fatalf("only %d nodes alive", len(o.Alive()))
	}
	// Every node got a boot reply.
	for i, a := range algs {
		waitFor(t, 3*time.Second, fmt.Sprintf("boot reply at node %d", i), func() bool {
			return a.count(protocol.TypeBootReply) > 0
		})
	}
	// Later joiners learn existing nodes.
	late := &tracker{}
	startNode(t, n, nid(100), obsID, late)
	waitFor(t, 3*time.Second, "late joiner known hosts", func() bool {
		late.mu.Lock()
		defer late.mu.Unlock()
		return late.bootHosts >= 1
	})
}

func TestStatusReportsFlow(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	sink := &tracker{}
	startNode(t, n, nid(2), obsID, sink)
	src := &tracker{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	startNode(t, n, nid(1), obsID, src)
	o.WaitForNodes(2, 5*time.Second)

	if !o.Deploy(nid(1), 7, 200<<10, 2048) {
		t.Fatal("Deploy found no route")
	}
	waitFor(t, 5*time.Second, "sink data", func() bool {
		return sink.ReceivedBytes(7) > 20<<10
	})
	waitFor(t, 5*time.Second, "status report with links", func() bool {
		rp, ok := o.Status(nid(1))
		return ok && len(rp.Downstream) >= 1
	})
	rp, _ := o.Status(nid(1))
	found := false
	for _, l := range rp.Downstream {
		if l.Peer == nid(2) && l.Rate > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("report lacks active downstream to %v: %+v", nid(2), rp.Downstream)
	}
	// Topology view includes the edge.
	waitFor(t, 3*time.Second, "topology edge", func() bool {
		for _, e := range o.Topology() {
			if e.From == nid(1) && e.To == nid(2) {
				return true
			}
		}
		return false
	})
	if s := o.RenderTopology(); !strings.Contains(s, nid(2).String()) {
		t.Errorf("RenderTopology missing edge: %q", s)
	}
}

func TestObserverControlPanel(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	a := &tracker{}
	startNode(t, n, nid(1), obsID, a)
	o.WaitForNodes(1, 5*time.Second)

	if !o.Join(nid(1), 3, nid(9)) {
		t.Fatal("Join found no route")
	}
	waitFor(t, 3*time.Second, "join command", func() bool {
		return a.count(protocol.TypeJoin) > 0
	})
	a.mu.Lock()
	j := a.joins[0]
	a.mu.Unlock()
	if j.App != 3 || j.Contact != nid(9) {
		t.Errorf("join payload = %+v", j)
	}

	if !o.Custom(nid(1), 42, -1, 2) {
		t.Fatal("Custom found no route")
	}
	waitFor(t, 3*time.Second, "custom command", func() bool {
		return a.count(protocol.TypeCustom) > 0
	})
	if !o.Leave(nid(1), 3) {
		t.Fatal("Leave found no route")
	}
	waitFor(t, 3*time.Second, "leave command", func() bool {
		return a.count(protocol.TypeLeave) > 0
	})
}

func TestObserverSetBandwidthThrottlesNode(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	sink := &tracker{}
	startNode(t, n, nid(2), obsID, sink)
	src := &tracker{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	startNode(t, n, nid(1), obsID, src)
	o.WaitForNodes(2, 5*time.Second)
	o.Deploy(nid(1), 7, 0, 4096)
	waitFor(t, 5*time.Second, "initial traffic", func() bool {
		return sink.ReceivedBytes(7) > 100<<10
	})
	const cap = 80 << 10
	if !o.SetBandwidth(nid(1), protocol.SetBandwidth{Class: protocol.BandwidthUp, Rate: cap}) {
		t.Fatal("SetBandwidth found no route")
	}
	time.Sleep(400 * time.Millisecond)
	before := sink.ReceivedBytes(7)
	const window = 700 * time.Millisecond
	time.Sleep(window)
	rate := float64(sink.ReceivedBytes(7)-before) / window.Seconds()
	if rate > cap*1.6 {
		t.Errorf("rate after observer throttle = %.0f B/s, want <= ~%d", rate, cap)
	}
}

func TestObserverTerminateNode(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	a := &tracker{}
	e := startNode(t, n, nid(1), obsID, a)
	o.WaitForNodes(1, 5*time.Second)
	if !o.TerminateNode(nid(1)) {
		t.Fatal("TerminateNode found no route")
	}
	waitFor(t, 5*time.Second, "node to leave alive set", func() bool {
		return len(o.Alive()) == 0
	})
	// The engine must be fully stopped; Stop again is a no-op.
	e.Stop()
}

// lockedBuf is a goroutine-safe TraceWriter for tests.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestTraceCollection(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	var log lockedBuf
	o := startObserver(t, n, func(c *observer.Config) { c.TraceWriter = &log })
	a := &tracker{}
	e := startNode(t, n, nid(1), obsID, a)
	o.WaitForNodes(1, 5*time.Second)
	e.Trace("checkpoint %d reached", 5)
	// The observer lists the record before it writes the line, so wait for
	// both: checking the writer right after the list raced that window.
	waitFor(t, 3*time.Second, "trace record", func() bool {
		return len(o.Traces()) > 0 && strings.Contains(log.String(), "checkpoint 5 reached")
	})
	rec := o.Traces()[0]
	if rec.Node != nid(1) || rec.Body != "checkpoint 5 reached" {
		t.Errorf("trace = %+v", rec)
	}
	if !strings.Contains(log.String(), "checkpoint 5 reached") {
		t.Errorf("trace writer missing record: %q", log.String())
	}
}

func TestProxyRelaysUpdatesAndCommands(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	proxyID := message.MakeID("10.254.0.1", 9100)
	p, err := proxy.New(proxy.Config{
		ID:        proxyID,
		Observer:  obsID,
		Transport: engine.VNet{Net: n},
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(p.Stop)

	// Nodes point at the proxy as their "observer".
	a := &tracker{}
	startNode(t, n, nid(1), proxyID, a)
	b := &tracker{}
	startNode(t, n, nid(2), proxyID, b)

	if !o.WaitForNodes(2, 5*time.Second) {
		t.Fatalf("observer sees %d nodes via proxy", len(o.Alive()))
	}
	if got := p.NodeCount(); got != 2 {
		t.Errorf("proxy NodeCount = %d, want 2", got)
	}
	// Boot replies traverse the relay envelope path.
	waitFor(t, 5*time.Second, "boot replies through proxy", func() bool {
		return a.count(protocol.TypeBootReply) > 0 && b.count(protocol.TypeBootReply) > 0
	})
	// Commands reach the right node through the envelope.
	if !o.Custom(nid(2), 9, 1, 2) {
		t.Fatal("Custom via proxy found no route")
	}
	waitFor(t, 5*time.Second, "custom at node 2", func() bool {
		return b.count(protocol.TypeCustom) > 0
	})
	if got := a.count(protocol.TypeCustom); got != 0 {
		t.Errorf("custom command leaked to node 1 (%d copies)", got)
	}
	// Status reports flow through the proxy as well.
	waitFor(t, 5*time.Second, "reports via proxy", func() bool {
		_, ok := o.Status(nid(1))
		return ok
	})
}

func TestObserverConfigValidation(t *testing.T) {
	if _, err := observer.New(observer.Config{ID: obsID}); err == nil {
		t.Error("New without transport succeeded")
	}
	n := vnet.New()
	defer n.Close()
	if _, err := observer.New(observer.Config{Transport: engine.VNet{Net: n}}); err == nil {
		t.Error("New without ID succeeded")
	}
	if _, err := proxy.New(proxy.Config{Transport: engine.VNet{Net: n}}); err == nil {
		t.Error("proxy.New without IDs succeeded")
	}
}

func TestPushMembershipRefreshesStaleViews(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)
	// First node boots alone: empty membership.
	early := &tracker{}
	startNode(t, n, nid(1), obsID, early)
	o.WaitForNodes(1, 5*time.Second)
	waitFor(t, 3*time.Second, "early boot reply", func() bool {
		return early.count(protocol.TypeBootReply) > 0
	})
	early.mu.Lock()
	firstView := early.bootHosts
	early.mu.Unlock()
	if firstView != 0 {
		t.Fatalf("first node's bootstrap view = %d hosts, want 0", firstView)
	}
	// Two more nodes arrive; a membership push must refresh the view.
	startNode(t, n, nid(2), obsID, &tracker{})
	startNode(t, n, nid(3), obsID, &tracker{})
	o.WaitForNodes(3, 5*time.Second)
	if !o.PushMembership(nid(1)) {
		t.Fatal("PushMembership found no route")
	}
	waitFor(t, 3*time.Second, "refreshed membership", func() bool {
		early.mu.Lock()
		defer early.mu.Unlock()
		return early.bootHosts == 2
	})
}
