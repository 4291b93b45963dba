package engine_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// TestDepartWhileObserverDownStopsReconnects departs a node whose observer
// is unreachable and whose reconnect loop is actively backing off. The
// departure must complete promptly, and — the regression — no reconnect
// attempt may fire after Depart begins: a departing node redialing the
// observer would race shutdown and un-depart itself in the observer's
// records.
func TestDepartWhileObserverDownStopsReconnects(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	obsID := nid(99) // never listening

	alg := &recorder{}
	e := startNode(t, n, nid(1), alg, func(c *engine.Config) {
		c.Observers = []message.NodeID{obsID}
		c.DialTimeout = 50 * time.Millisecond
		c.RetryBase = 10 * time.Millisecond
		c.RetryMax = 20 * time.Millisecond
		c.DepartureGrace = 200 * time.Millisecond
	})
	// Let a few reconnect attempts fail.
	time.Sleep(60 * time.Millisecond)

	done := make(chan struct{})
	go func() { e.Depart(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Depart hung with observer down")
	}

	// The observer comes back. A departed node must not dial it: with
	// RetryMax 20ms, any surviving reconnect loop would arrive well within
	// the window.
	tr := engine.VNet{Net: n}
	l, err := tr.Listen(obsID.Addr())
	if err != nil {
		t.Fatalf("listen as observer: %v", err)
	}
	defer l.Close()
	conns := make(chan struct{}, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			_ = c.Close()
			conns <- struct{}{}
		}
	}()
	select {
	case <-conns:
		t.Fatal("departed engine reconnected to the observer")
	case <-time.After(300 * time.Millisecond):
	}
}

// TestControlOvertakesQueuedDataUnderSaturation saturates a throttled link
// until the sender buffer holds a deep data backlog, then issues latency
// pings. The ping (control class) must bypass the queue: the measured
// control-lane queueing delay stays far below the data-lane delay, and the
// ping round-trip completes while megabytes of data are still queued.
func TestControlOvertakesQueuedDataUnderSaturation(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	const linkCap = 200 << 10 // 200 KiB/s bottleneck

	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.LinkBW = map[message.NodeID]int64{nid(2): linkCap}
		c.SendBuf = 256 // deep queue: ~1 MiB of 4 KiB messages at the cap
	})
	a.StartSource(app, 0, 4096)

	// Let the backlog build: 256 slots of 4 KiB at 200 KiB/s is several
	// seconds of queued data.
	waitFor(t, 5*time.Second, "data backlog to accumulate", func() bool {
		_, data := a.QueueDelays()
		return data > 500*time.Millisecond
	})

	for i := 0; i < 5; i++ {
		a.Do(func(api engine.API) { api.Ping(nid(2)) })
		time.Sleep(50 * time.Millisecond)
	}
	waitFor(t, 3*time.Second, "ping round-trips despite saturation", func() bool {
		return src.count(protocol.TypeLatency) >= 3
	})

	ctrl, data := a.QueueDelays()
	if data < 500*time.Millisecond {
		t.Fatalf("data-lane delay = %v; backlog did not build, test is vacuous", data)
	}
	if ctrl > data/8 {
		t.Errorf("control-lane delay %v not well below data-lane delay %v", ctrl, data)
	}
}

// TestMemoryBudgetBoundsBufferedBytes overloads a node that has a memory
// budget configured and checks the contract: buffered bytes never exceed
// the budget, the overflow is shed with full loss accounting, and the data
// keeps flowing (drop-head, not deadlock).
func TestMemoryBudgetBoundsBufferedBytes(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	const budget = 256 << 10

	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.LinkBW = map[message.NodeID]int64{nid(2): 20 << 10} // trickle out
		c.SendBuf = 10000                                     // room to buffer far past the budget
		c.MemoryBudget = budget
	})
	a.StartSource(app, 0, 4096)

	waitFor(t, 10*time.Second, "overload to engage shedding", func() bool {
		return a.Counters().MsgsShed > 0
	})
	time.Sleep(500 * time.Millisecond) // keep overloading past the watermark

	if max := a.MaxBufferedBytes(); max > budget {
		t.Errorf("buffered bytes peaked at %d, above the %d budget", max, budget)
	}
	snap := a.Counters()
	if snap.BytesShed == 0 {
		t.Error("no bytes charged to the shed counter")
	}
	if snap.BytesDropped < snap.BytesShed {
		t.Errorf("shed bytes (%d) not charged to loss counters (dropped %d)",
			snap.BytesShed, snap.BytesDropped)
	}
	// Control still round-trips while data is being shed.
	a.Do(func(api engine.API) { api.Ping(nid(2)) })
	waitFor(t, 3*time.Second, "ping round-trip under budget shedding", func() bool {
		return src.count(protocol.TypeLatency) >= 1
	})
}

// TestSlowPeerShedAndReport wedges a downstream behind a near-dead link
// and checks the escalation: the stalled sender sheds its oldest data, and
// after persistent stalls the engine reports a SlowPeer event to the
// algorithm so it can reparent away.
func TestSlowPeerShedAndReport(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1

	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.LinkBW = map[message.NodeID]int64{nid(2): 4 << 10} // nearly dead
		c.SendBuf = 8
		c.StatusInterval = 50 * time.Millisecond
		c.StallThreshold = 100 * time.Millisecond
	})
	a.StartSource(app, 0, 2048)

	waitFor(t, 10*time.Second, "slow-peer report", func() bool {
		return src.count(protocol.TypeSlowPeer) >= 1
	})
	if a.Counters().BytesShed == 0 {
		t.Error("stalled sender reported SlowPeer without shedding")
	}
	reports := src.controlOf(protocol.TypeSlowPeer)
	sp, err := protocol.DecodeSlowPeer(reports[0].payload)
	if err != nil {
		t.Fatalf("decode SlowPeer payload: %v", err)
	}
	if sp.Peer != nid(2) {
		t.Errorf("SlowPeer names %s, want %s", sp.Peer, nid(2))
	}
	if sp.ShedBytes == 0 {
		t.Error("SlowPeer reports zero shed bytes")
	}
}

// TestInactivityDeadlineIndependentOfStatusInterval stalls an upstream
// while the periodic tick is far slower than the inactivity timeout. The
// monotonic per-peer deadline must declare the link dead within roughly
// InactivityTimeout — under the old interval-counting scan the failure
// would wait for the next status tick, here 30 s away.
func TestInactivityDeadlineIndependentOfStatusInterval(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1

	sink := &recorder{}
	b := startNode(t, n, nid(2), sink, func(c *engine.Config) {
		c.StatusInterval = 30 * time.Second // periodic scan effectively off
		c.InactivityTimeout = 300 * time.Millisecond
	})
	_ = b
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "data to flow", func() bool {
		return sink.ReceivedBytes(app) > 32<<10
	})
	// Stall the stream without closing the connection.
	a.StopSource(app)
	start := time.Now()
	waitFor(t, 5*time.Second, "stalled upstream declared dead", func() bool {
		return sink.count(protocol.TypeLinkDown) >= 1
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("failure detection took %v, want within a small factor of the 300ms timeout", elapsed)
	}
}
