package engine_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// limitTransport wraps the virtual network and cuts every dialed
// connection's write side off after a fixed byte budget, so a write
// failure can be injected mid-message deterministically.
type limitTransport struct {
	net   *vnet.Network
	limit int64
}

func (lt *limitTransport) Listen(addr string) (net.Listener, error) {
	return lt.net.Listen(addr)
}

func (lt *limitTransport) DialFrom(local, addr string, _ time.Duration) (net.Conn, error) {
	c, err := lt.net.DialFrom(local, addr)
	if err != nil {
		return nil, err
	}
	return &limitConn{Conn: c, remaining: lt.limit}, nil
}

// limitConn accepts writes until the budget runs out, then fails every
// write. It deliberately does not implement WriteBuffers, forcing the
// sender onto the per-message write path.
type limitConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int64
}

var errBudget = errors.New("write budget exhausted")

func (c *limitConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return 0, errBudget
	}
	n := int64(len(b))
	if n > c.remaining {
		n = c.remaining
	}
	wn, err := c.Conn.Write(b[:n])
	c.remaining -= int64(wn)
	if err == nil && int64(wn) == n && n < int64(len(b)) {
		err = errBudget // partial frame: the rest will never follow
	}
	return wn, err
}

// TestDropAccountingCountsInFlightMessage is the regression test for the
// sender's loss accounting: when a write fails midway through a message,
// the in-flight message must be counted as dropped in full — previously
// only the unsent byte remainder was recorded (and only one counter hit
// regardless of how many messages were lost).
func TestDropAccountingCountsInFlightMessage(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 3
	const payload = 1000
	wireLen := int64(message.HeaderSize + payload) // 1024
	helloLen := int64(message.HeaderSize)

	sink := &recorder{}
	startNode(t, n, nid(2), sink)

	r := &recorder{}
	// Budget: hello + first message + half of the second. The second
	// message fails mid-write and must be charged in full.
	lt := &limitTransport{net: n, limit: helloLen + wireLen + wireLen/2}
	a := startTimedNode(t, n, nid(1), r, engine.Timing{DialAttempts: 1}, func(c *engine.Config) {
		c.Transport = lt
	})

	a.Do(func(api engine.API) {
		for i := 0; i < 2; i++ {
			m := api.NewMsg(message.FirstDataType, app, uint32(i), payload)
			api.SendNew(m, nid(2))
		}
	})
	waitFor(t, 5*time.Second, "LinkDown after write failure", func() bool {
		return r.count(protocol.TypeLinkDown) > 0
	})
	c := a.Counters()
	if c.MsgsDropped != 1 {
		t.Errorf("MsgsDropped = %d, want 1 (the in-flight message)", c.MsgsDropped)
	}
	if c.BytesDropped != wireLen {
		t.Errorf("BytesDropped = %d, want %d (full wire image of the in-flight message)",
			c.BytesDropped, wireLen)
	}
}

// TestFlakyLinkBelowInactivityTimeoutSurvives drives traffic over a link
// that stalls for less than the inactivity timeout: the engine must NOT
// declare the upstream failed — a slow or jittery link is not a dead one.
func TestFlakyLinkBelowInactivityTimeoutSurvives(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2
	sink := &recorder{}
	b := startNode(t, n, nid(2), sink, func(c *engine.Config) {
		c.InactivityTimeout = 800 * time.Millisecond
		c.StatusInterval = 50 * time.Millisecond
	})
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 256<<10, 1024) // paced so the pipe outlives the stall
	waitFor(t, 5*time.Second, "traffic", func() bool {
		return sink.ReceivedBytes(app) > 10*1024
	})

	// Stall well below the timeout; traffic resumes before the detector
	// can fire.
	n.Flaky(nid(1).Addr(), nid(2).Addr(), 0, 300*time.Millisecond)
	before := sink.ReceivedBytes(app)
	waitFor(t, 5*time.Second, "delivery resumes after short stall", func() bool {
		return sink.ReceivedBytes(app) > before
	})
	time.Sleep(200 * time.Millisecond) // a full detector period after recovery
	if got := sink.count(protocol.TypeLinkDown); got != 0 {
		t.Errorf("short stall tore the link down %d times; want 0", got)
	}
	if ups := b.Upstreams(); len(ups) != 1 {
		t.Errorf("B upstreams = %v, want the stalled-but-alive link kept", ups)
	}
}

// TestFlakyLinkPastInactivityTimeoutCascadesOnce stalls a mid-chain link
// beyond the inactivity timeout on a A->B->C forwarding chain: B must
// declare the upstream dead exactly once, and C must receive exactly one
// BrokenSource cascade.
func TestFlakyLinkPastInactivityTimeoutCascadesOnce(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2
	tail := &recorder{}
	startNode(t, n, nid(3), tail)
	mid := &recorder{}
	mid.DefaultRoutes = []message.NodeID{nid(3)}
	b := startNode(t, n, nid(2), mid, func(c *engine.Config) {
		c.InactivityTimeout = 300 * time.Millisecond
		c.StatusInterval = 50 * time.Millisecond
	})
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)
	waitFor(t, 5*time.Second, "chain traffic", func() bool {
		return tail.ReceivedBytes(app) > 10*1024
	})

	// Stall far past the timeout, and stop the source so A does not
	// immediately redial and replace the link the moment the detector
	// kills it. The connection stays open — only the inactivity detector
	// can notice, and it must fire exactly once. The stall must outlast
	// the whole measurement window below: A still redials to flush its
	// queued backlog, and if the stall expired mid-test that second link
	// would complete its handshake, flush, go idle, and trip the detector
	// again — a legitimate second LinkDown the exactly-once count here is
	// not about.
	n.Flaky(nid(1).Addr(), nid(2).Addr(), 0, 30*time.Second)
	a.StopSource(app)
	waitFor(t, 10*time.Second, "inactivity LinkDown at B", func() bool {
		return mid.count(protocol.TypeLinkDown) > 0
	})
	waitFor(t, 5*time.Second, "BrokenSource cascade at C", func() bool {
		return tail.count(protocol.TypeBrokenSource) > 0
	})
	time.Sleep(300 * time.Millisecond) // several detector periods of quiet
	if got := mid.count(protocol.TypeLinkDown); got != 1 {
		t.Errorf("LinkDown fired %d times at B; want exactly 1", got)
	}
	if got := tail.count(protocol.TypeBrokenSource); got != 1 {
		t.Errorf("BrokenSource cascaded %d times at C; want exactly 1", got)
	}
	if ups := b.Upstreams(); len(ups) != 0 {
		t.Errorf("B upstreams = %v after failure, want none", ups)
	}
}

// TestDialRetryReachesLateListener exercises the sender's backoff redial:
// the destination starts listening only after the first dial attempt has
// already failed, and the queued message must still arrive.
func TestDialRetryReachesLateListener(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	r := &recorder{}
	a := startTimedNode(t, n, nid(1), r, engine.Timing{DialAttempts: 10}, func(c *engine.Config) {
		c.RetryBase = 20 * time.Millisecond
	})
	m := a.NewControl(protocol.TypeCustom, 0, protocol.Custom{Kind: 7}.Encode())
	a.SendNew(m, nid(2))

	time.Sleep(50 * time.Millisecond) // let at least one dial fail
	late := &recorder{}
	startNode(t, n, nid(2), late)
	waitFor(t, 5*time.Second, "message delivered after redial", func() bool {
		return late.count(protocol.TypeCustom) > 0
	})
	if got := r.count(protocol.TypeLinkDown); got != 0 {
		t.Errorf("link declared down %d times despite successful redial", got)
	}
}

// TestDepartDrainsAndDeregisters checks the graceful-departure path: the
// departing node's queued messages reach the peer before the connections
// close.
func TestDepartDrainsAndDeregisters(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	r := &recorder{}
	a := startNode(t, n, nid(1), r)

	const burst = 50
	queued := make(chan struct{})
	a.Do(func(api engine.API) {
		for i := 0; i < burst; i++ {
			m := api.NewMsg(message.FirstDataType, 1, uint32(i), 4096)
			api.SendNew(m, nid(2))
		}
		close(queued)
	})
	<-queued
	a.Depart()
	waitFor(t, 5*time.Second, "queued burst delivered despite departure", func() bool {
		return sink.count(message.FirstDataType) == burst
	})
}

// TestDepartWaitsOutAHeldBatch: the departing node's last batch has left
// the sender ring — the ring reads empty — and is still being paced onto a
// shaped link. Depart must ask the ring whether a popped batch is still
// held, in the same breath as whether it is empty, and not stop the node
// before the bytes are out.
func TestDepartWaitsOutAHeldBatch(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const burst = 8
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	a := startNode(t, n, nid(1), &recorder{})
	capLink(a, nid(2), 16<<10) // the burst takes half a second
	a.Do(func(api engine.API) {
		for i := 0; i < burst; i++ {
			api.SendNew(api.NewMsg(message.FirstDataType, 1, uint32(i), 1024), nid(2))
		}
	})
	waitFor(t, 5*time.Second, "the sender goroutine to pop the whole burst", func() bool {
		ds := a.Snapshot().Downstream
		return len(ds) == 1 && ds[0].BufLen == 0
	})
	if got := sink.count(message.FirstDataType); got == burst {
		t.Fatal("the burst was written before Depart: nothing is held, the test shows nothing")
	}
	a.Depart()
	waitFor(t, 5*time.Second, "the held batch to be delivered despite the departure", func() bool {
		return sink.count(message.FirstDataType) == burst
	})
	if d := a.Counters().MsgsDropped; d != 0 {
		t.Errorf("%d messages dropped by the departure", d)
	}
}

// TestDepartOfAnIdleNodeIsPrompt: with nothing queued, parked or held the
// first look says drained and Depart goes straight to Stop — it used to
// need two looks 10 ms apart, because one could fall between a sender's pop
// and its in-flight mark.
func TestDepartOfAnIdleNodeIsPrompt(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	a := startNode(t, n, nid(1), &recorder{})
	a.Do(func(api engine.API) { api.SendNew(api.NewMsg(message.FirstDataType, 1, 0, 64), nid(2)) })
	waitFor(t, 5*time.Second, "the link to come up and go idle", func() bool {
		return sink.count(message.FirstDataType) == 1
	})
	start := time.Now()
	a.Depart()
	took := time.Since(start)
	t.Logf("Depart of an idle node took %v", took)
	if took >= 10*time.Millisecond {
		t.Errorf("Depart of an idle node took %v, want less than one 10 ms poll", took)
	}
}
