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
	e := startTimedNode(t, n, nid(1), alg, engine.Timing{RetryMax: 20 * time.Millisecond}, func(c *engine.Config) {
		c.Observers = []message.NodeID{obsID}
		c.RetryBase = 10 * time.Millisecond
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
		c.SendBuf = 256 // deep queue: ~1 MiB of 4 KiB messages at the cap
	})
	capLink(a, nid(2), linkCap)
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

// TestWedgedDownstreamBoundsBufferedBytes pins the bound that back-pressure
// alone puts on a node's memory: with the link to the only downstream all
// but dead and a source generating back to back, every reference the node
// holds sits in a bounded place, and once they are all full the source
// blocks. For an algorithm that forwards each message to one destination
// the places are, in wire images, with b = min(BatchSize, ring):
//
//	RecvBuf + b           the local ring, and the rest of the source's
//	                      batch blocked in PushBatch (charged at ingress)
//	4·SendBuf + 1         the parked backlog plus the switch's quantum (a
//	                      quantum never exceeds the parked headroom), and
//	                      the one message charged twice during its upcall
//	SendBuf + b           the sender ring, and the batch the sender popped
//	                      and is still writing
//
// — RecvBuf + 5·SendBuf + 2b + 1 in all: 449 at the default rings, 41 at
// 5-slot rings, where every batch is a whole ring. Both rows are exact, not
// loose upper bounds: every place fills, and the peak reads the bound or
// one image below it — the +1 is reached only when the peak coincides with
// an upcall. (448–449 at the defaults; 448 and 40 on every run at
// GOMAXPROCS 1, 2 and 4 on a 2-core x86-64 host.)
// Nothing is lost on the way — the source waited — and control still
// overtakes the wedged data.
func TestWedgedDownstreamBoundsBufferedBytes(t *testing.T) {
	for _, rings := range []struct {
		name       string
		recv, send int
	}{
		{"default rings", engine.DefaultRecvBuf, engine.DefaultSendBuf},
		{"5-slot rings", 5, 5},
	} {
		t.Run(rings.name, func(t *testing.T) {
			n := vnet.New()
			defer n.Close()
			const app, msgSize = 1, 4096

			sink := &recorder{}
			startNode(t, n, nid(2), sink)
			src := &recorder{}
			src.DefaultRoutes = []message.NodeID{nid(2)}
			a := startNode(t, n, nid(1), src, func(c *engine.Config) { c.RecvBuf, c.SendBuf = rings.recv, rings.send })
			capLink(a, nid(2), 4<<10) // one message a second
			a.StartSource(app, 0, msgSize)

			maxParked := 4 * rings.send
			waitFor(t, 10*time.Second, "back-pressure to reach the switch", func() bool {
				return int(a.Snapshot().Shards[0].Parked) >= maxParked
			})
			time.Sleep(time.Second) // keep overloading the wedged node

			images := rings.recv + min(engine.DefaultBatchSize, rings.recv) +
				maxParked + 1 +
				rings.send + min(engine.DefaultBatchSize, rings.send)
			image := int64(message.HeaderSize + msgSize)
			peak := a.MaxBufferedBytes()
			t.Logf("buffered bytes peaked at %d wire images, bound %d", peak/image, images)
			if peak > int64(images)*image {
				t.Errorf("buffered bytes peaked at %d, above the %d the rings can hold (%d wire images)",
					peak, int64(images)*image, images)
			}
			if dropped := a.Counters().MsgsDropped; dropped != 0 {
				t.Errorf("%d messages dropped: the source should have blocked instead", dropped)
			}
			a.Do(func(api engine.API) { api.Ping(nid(2)) })
			waitFor(t, 5*time.Second, "ping round-trip past the wedged data", func() bool {
				return src.count(protocol.TypeLatency) >= 1
			})
		})
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
