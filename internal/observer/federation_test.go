package observer

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// newBareFedObserver builds an unstarted observer with an explicit
// identity and peer list, for white-box federation tests.
func newBareFedObserver(t *testing.T, id message.NodeID, peers ...message.NodeID) *Observer {
	t.Helper()
	n := vnet.New()
	t.Cleanup(n.Close)
	o, err := New(Config{
		ID:        id,
		Transport: engine.VNet{Net: n},
		Peers:     peers,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o
}

// pipeRoute builds a direct route backed by one end of a net.Pipe and
// returns the far end, so tests can observe the conn being closed.
func pipeRoute() (*route, net.Conn) {
	near, far := net.Pipe()
	return &route{link: engine.NewLink(near, 8, new(sync.WaitGroup))}, far
}

func assertConnClosed(t *testing.T, far net.Conn, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := far.Read(buf)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("%s: read succeeded on a conn that should be closed", what)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: conn left open", what)
	}
}

// TestRegisterClosesSupersededRoute is the regression test for the
// leaked-route bug: a node re-registering over a fresh direct connection
// (an engine failing back, say) used to overwrite its route entry while
// the old conn and ring lived on until process exit. The superseded
// direct route must be closed — conn and ring both.
func TestRegisterClosesSupersededRoute(t *testing.T) {
	o := newBareObserver(t)
	id := inid(1)
	r1, far1 := pipeRoute()
	o.register(id, r1)
	if got := o.nodes[id].seq; got != 1 {
		t.Fatalf("seq after first register = %d, want 1", got)
	}

	// Refreshing over the same route must not close it or bump the seq.
	o.register(id, r1)
	if r1.link.Closed() {
		t.Fatal("re-register over the same route closed its ring")
	}
	if got := o.nodes[id].seq; got != 1 {
		t.Fatalf("seq after same-route refresh = %d, want 1", got)
	}

	r2, _ := pipeRoute()
	o.register(id, r2)
	if !r1.link.Closed() {
		t.Fatal("superseded route's ring left open")
	}
	assertConnClosed(t, far1, "superseded route")
	if o.nodes[id].out != r2 {
		t.Fatal("node not routed at the new connection")
	}
	if got := o.nodes[id].seq; got != 2 {
		t.Fatalf("seq after supersede = %d, want 2", got)
	}
}

// TestRegisterKeepsSupersededProxyTrunk: a proxy trunk is shared by all
// its relayed nodes, so one node re-registering directly must not tear
// the trunk down under the others.
func TestRegisterKeepsSupersededProxyTrunk(t *testing.T) {
	o := newBareObserver(t)
	relayed, other := inid(1), inid(2)
	trunk, _ := pipeRoute()
	trunk.proxy = true
	o.register(relayed, trunk)
	o.register(other, trunk)

	direct, _ := pipeRoute()
	o.register(relayed, direct)
	if trunk.link.Closed() {
		t.Fatal("shared proxy trunk closed when one relayed node re-registered directly")
	}
	if o.nodes[other].out != trunk {
		t.Fatal("unrelated relayed node lost its trunk route")
	}
}

// TestAbsorbSyncMergeRules exercises the anti-entropy merge: higher seq
// wins, live direct routes out-version remote claims, and staleness
// refreshes only on the home observer's own liveness claims.
func TestAbsorbSyncMergeRules(t *testing.T) {
	us := message.MakeID("10.255.0.1", 9000)
	peer := message.MakeID("10.255.0.2", 9000)
	third := message.MakeID("10.255.0.3", 9000)
	o := newBareFedObserver(t, us, peer, third)
	nodeX := inid(1)

	// A fresh claim from the node's home observer is adopted wholesale.
	if changed := o.absorbSync(protocol.ObsSync{Origin: peer, Entries: []protocol.MemberEntry{
		{Node: nodeX, Home: peer, Seq: 3, Alive: true},
	}}); changed != 1 {
		t.Fatalf("absorb of fresh entry changed %d entries, want 1", changed)
	}
	n := o.nodes[nodeX]
	if n.seq != 3 || n.home != peer || !n.remoteAlive {
		t.Fatalf("adopted entry = {seq %d home %s alive %v}, want {3 %s true}", n.seq, n.home, n.remoteAlive, peer)
	}
	if alive := o.Alive(); len(alive) != 1 || alive[0] != nodeX {
		t.Fatalf("merged Alive() = %v, want [%s]", alive, nodeX)
	}
	if set := o.bootstrapSet(message.NodeID{}); len(set) != 1 || set[0] != nodeX {
		t.Fatalf("merged bootstrapSet = %v, want [%s]", set, nodeX)
	}

	// An older or equal-version claim from a NON-home observer changes
	// nothing and must not refresh liveness (third-party echo).
	seen := n.lastSeen
	time.Sleep(2 * time.Millisecond)
	if changed := o.absorbSync(protocol.ObsSync{Origin: third, Entries: []protocol.MemberEntry{
		{Node: nodeX, Home: peer, Seq: 3, Alive: true},
	}}); changed != 0 {
		t.Fatalf("third-party echo changed %d entries, want 0", changed)
	}
	if n.lastSeen.After(seen) {
		t.Fatal("third-party echo refreshed lastSeen")
	}

	// The same claim from the asserting home IS a heartbeat.
	if o.absorbSync(protocol.ObsSync{Origin: peer, Entries: []protocol.MemberEntry{
		{Node: nodeX, Home: peer, Seq: 3, Alive: true},
	}}); !n.lastSeen.After(seen) {
		t.Fatal("home heartbeat did not refresh lastSeen")
	}

	// A higher-version departure removes the node from the merged view.
	o.absorbSync(protocol.ObsSync{Origin: peer, Entries: []protocol.MemberEntry{
		{Node: nodeX, Home: peer, Seq: 4, Departed: true},
	}})
	if alive := o.Alive(); len(alive) != 0 {
		t.Fatalf("Alive() after synced departure = %v, want empty", alive)
	}

	// A node we hold a live direct route to out-versions any remote
	// claim: the conn is ground truth until it actually dies.
	nodeY := inid(2)
	rt, _ := pipeRoute()
	o.register(nodeY, rt)
	o.absorbSync(protocol.ObsSync{Origin: peer, Entries: []protocol.MemberEntry{
		{Node: nodeY, Home: peer, Seq: 50, Alive: true},
	}})
	ny := o.nodes[nodeY]
	if ny.home != us || ny.seq != 51 || ny.out != rt {
		t.Fatalf("live direct route did not out-version remote claim: {seq %d home %s}", ny.seq, ny.home)
	}

	// Entries about federation members themselves are never absorbed.
	o.absorbSync(protocol.ObsSync{Origin: peer, Entries: []protocol.MemberEntry{
		{Node: third, Home: peer, Seq: 9, Alive: true},
	}})
	if _, ok := o.nodes[third]; ok {
		t.Fatal("a peer observer leaked into the node table")
	}
}

// TestBuildSyncRoundTrip: a snapshot built by one observer and absorbed
// by a peer reproduces the membership, including liveness derived from
// route state.
func TestBuildSyncRoundTrip(t *testing.T) {
	a := message.MakeID("10.255.0.1", 9000)
	b := message.MakeID("10.255.0.2", 9000)
	oa := newBareFedObserver(t, a, b)
	ob := newBareFedObserver(t, b, a)

	up, _ := pipeRoute()
	oa.register(inid(1), up)
	oa.register(inid(2), up)
	oa.mu.Lock()
	oa.nodes[inid(2)].out = nil // crashed: route lost, seq already bumped at register
	oa.nodes[inid(2)].seq++
	oa.mu.Unlock()

	s := oa.buildSync()
	if s.Origin != a || len(s.Entries) != 2 {
		t.Fatalf("buildSync = origin %s, %d entries; want %s, 2", s.Origin, len(s.Entries), a)
	}
	dec, err := protocol.DecodeObsSync(s.Encode())
	if err != nil {
		t.Fatalf("DecodeObsSync: %v", err)
	}
	ob.absorbSync(dec)
	if alive := ob.Alive(); len(alive) != 1 || alive[0] != inid(1) {
		t.Fatalf("peer's merged Alive() = %v, want [%s]", alive, inid(1))
	}
}

// bootCatcher records the bootstrap hosts its node received.
type bootCatcher struct {
	multicast.Forwarder
	mu    sync.Mutex
	hosts []message.NodeID
}

func (b *bootCatcher) Process(m *message.Msg) engine.Verdict {
	if m.Type() == protocol.TypeBootReply {
		if br, err := protocol.DecodeBootReply(m.Payload()); err == nil {
			b.mu.Lock()
			b.hosts = append(b.hosts[:0], br.Hosts...)
			b.mu.Unlock()
		}
	}
	return b.Forwarder.Process(m)
}

func (b *bootCatcher) bootHosts() []message.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]message.NodeID, len(b.hosts))
	copy(out, b.hosts)
	return out
}

func fedWait(t *testing.T, d time.Duration, what string, cond func() bool) {
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

// TestFederatedObserverTier runs the whole story end to end on a virtual
// network: a node registers with observer A, peer observer B learns it
// through anti-entropy sync and serves it from its merged bootstrap
// view, commands from B relay through A, reports fan out to B — and
// when A dies, the node fails over and re-registers directly with B.
func TestFederatedObserverTier(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	idA := message.MakeID("10.255.0.1", 9000)
	idB := message.MakeID("10.255.0.2", 9000)
	mk := func(id message.NodeID, peers ...message.NodeID) *Observer {
		o, err := New(Config{
			ID:              id,
			Transport:       engine.VNet{Net: n},
			Peers:           peers,
			SyncInterval:    20 * time.Millisecond,
			RequestInterval: -1, // only explicit commands, so relay is provable
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		if err := o.Start(); err != nil {
			t.Fatalf("Start(%s): %v", id, err)
		}
		t.Cleanup(o.Stop)
		return o
	}
	oa := mk(idA, idB)
	ob := mk(idB, idA)

	fedWait(t, 5*time.Second, "peer trunks up", func() bool {
		return len(oa.PeerTrunks()) == 1 && len(ob.PeerTrunks()) == 1
	})

	node1 := inid(1)
	e1, err := engine.New(engine.Config{
		ID:             node1,
		Transport:      engine.VNet{Net: n},
		Algorithm:      &multicast.Forwarder{},
		Observers:      []message.NodeID{idA, idB},
		StatusInterval: 50 * time.Millisecond,
		RetryBase:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if err := e1.Start(); err != nil {
		t.Fatalf("engine.Start: %v", err)
	}
	t.Cleanup(e1.Stop)

	fedWait(t, 5*time.Second, "node alive at home observer A", func() bool {
		a := oa.Alive()
		return len(a) == 1 && a[0] == node1
	})
	fedWait(t, 5*time.Second, "node synced into B's merged view", func() bool {
		a := ob.Alive()
		return len(a) == 1 && a[0] == node1
	})
	ob.mu.Lock()
	remote := ob.nodes[node1]
	isRemote := remote != nil && remote.out == nil && remote.home == idA
	ob.mu.Unlock()
	if !isRemote {
		t.Fatal("B should know the node as remote (homed at A) before failover")
	}
	if set := ob.bootstrapSet(message.NodeID{}); len(set) != 1 || set[0] != node1 {
		t.Fatalf("B's merged bootstrapSet = %v, want [%s]", set, node1)
	}

	// Command from the NON-home observer relays over the federation
	// trunk; the resulting report reaches A directly and B by fanout.
	if !ob.RequestStatus(node1) {
		t.Fatal("B found no route for a command to a remote node")
	}
	fedWait(t, 5*time.Second, "federated report at both observers", func() bool {
		_, atA := oa.Status(node1)
		_, atB := ob.Status(node1)
		return atA && atB
	})
	fedWait(t, 5*time.Second, "sync traffic visible in federation stats", func() bool {
		fs := ob.Federation()
		return fs.SyncsSent > 0 && fs.SyncsAbsorbed > 0
	})

	// Kill A: the node must fail over and re-register directly with B.
	oa.Stop()
	fedWait(t, 10*time.Second, "node re-registered directly at B", func() bool {
		ob.mu.Lock()
		ns := ob.nodes[node1]
		direct := ns != nil && ns.out != nil
		ob.mu.Unlock()
		return direct
	})
	if got := e1.Observer(); got != idB {
		t.Fatalf("engine targets %s after failover, want %s", got, idB)
	}

	// A joiner bootstrapping from the survivor sees the failed-over node.
	catcher := &bootCatcher{}
	e2, err := engine.New(engine.Config{
		ID:        inid(2),
		Transport: engine.VNet{Net: n},
		Algorithm: catcher,
		Observers: []message.NodeID{idB},
	})
	if err != nil {
		t.Fatalf("engine.New(joiner): %v", err)
	}
	if err := e2.Start(); err != nil {
		t.Fatalf("engine.Start(joiner): %v", err)
	}
	t.Cleanup(e2.Stop)
	fedWait(t, 5*time.Second, "joiner bootstrapped from survivor's merged view", func() bool {
		for _, h := range catcher.bootHosts() {
			if h == node1 {
				return true
			}
		}
		return false
	})
}
