package engine_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// recorder is a test algorithm that records every message it processes.
type recorder struct {
	multicast.Forwarder
	mu    sync.Mutex
	types map[message.Type]int
	ctrl  []*recordedMsg
}

type recordedMsg struct {
	typ     message.Type
	sender  message.NodeID
	payload []byte
}

func (r *recorder) Process(m *message.Msg) engine.Verdict {
	r.mu.Lock()
	if r.types == nil {
		r.types = make(map[message.Type]int)
	}
	r.types[m.Type()]++
	if !m.IsData() {
		r.ctrl = append(r.ctrl, &recordedMsg{
			typ:     m.Type(),
			sender:  m.Sender(),
			payload: append([]byte(nil), m.Payload()...),
		})
	}
	r.mu.Unlock()
	return r.Forwarder.Process(m)
}

func (r *recorder) count(t message.Type) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.types[t]
}

func (r *recorder) controlOf(t message.Type) []*recordedMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*recordedMsg
	for _, c := range r.ctrl {
		if c.typ == t {
			out = append(out, c)
		}
	}
	return out
}

func nid(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.0.%d", i), 7000)
}

// startNode boots an engine over the shared vnet with the given algorithm.
func startNode(t *testing.T, n *vnet.Network, id message.NodeID, alg engine.Algorithm, mut ...func(*engine.Config)) *engine.Engine {
	t.Helper()
	return startTimedNode(t, n, id, alg, engine.Timing{}, mut...)
}

// startTimedNode is startNode with the link set-up timing shortened.
func startTimedNode(t *testing.T, n *vnet.Network, id message.NodeID, alg engine.Algorithm, timing engine.Timing, mut ...func(*engine.Config)) *engine.Engine {
	t.Helper()
	cfg := engine.Config{
		ID:             id,
		Transport:      engine.VNet{Net: n},
		Algorithm:      alg,
		StatusInterval: 100 * time.Millisecond,
	}
	for _, m := range mut {
		m(&cfg)
	}
	e, err := engine.NewTimed(cfg, timing)
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("Start(%s): %v", id, err)
	}
	t.Cleanup(e.Stop)
	return e
}

// capLink caps e's link toward peer at rate bytes per second, as the
// observer's runtime control does. The call is synchronous, so made before
// traffic it shapes the link from its first byte.
func capLink(e *engine.Engine, peer message.NodeID, rate int64) {
	e.SetBandwidthLocal(protocol.SetBandwidth{Class: protocol.BandwidthLink, Peer: peer, Rate: rate})
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewValidatesConfig(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	tr := engine.VNet{Net: n}
	if _, err := engine.New(engine.Config{Transport: tr, ID: nid(1)}); err == nil {
		t.Error("New without algorithm succeeded")
	}
	if _, err := engine.New(engine.Config{Algorithm: &recorder{}, ID: nid(1)}); err == nil {
		t.Error("New without transport succeeded")
	}
	if _, err := engine.New(engine.Config{Algorithm: &recorder{}, Transport: tr}); err == nil {
		t.Error("New without ID succeeded")
	}
}

func TestDataFlowsSourceToSink(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7

	sink := &recorder{}
	startNode(t, n, nid(2), sink)

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "sink to receive data", func() bool {
		return sink.ReceivedBytes(app) > 100*1024
	})
	if got := sink.SeenMessages(app); got == 0 {
		t.Error("sink saw no messages")
	}
}

// TestBatchingDisabledStillDelivers runs a chain with BatchSize 1 (no
// batching anywhere on the data path), checking that the batched code
// paths degrade exactly to the one-message-at-a-time design.
func TestBatchingDisabledStillDelivers(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7
	tune := func(c *engine.Config) {
		c.BatchSize = 1
	}

	sink := &recorder{}
	startNode(t, n, nid(2), sink, tune)

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, tune)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "sink to receive data without batching", func() bool {
		return sink.ReceivedBytes(app) > 100*1024
	})
}

func TestChainForwarding(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, hops = 3, 4
	algs := make([]*recorder, hops)
	for i := hops - 1; i >= 0; i-- {
		algs[i] = &recorder{}
		if i < hops-1 {
			algs[i].DefaultRoutes = []message.NodeID{nid(i + 2)}
		}
		startNode(t, n, nid(i+1), algs[i])
	}
	head := startNode(t, n, nid(100), func() engine.Algorithm {
		r := &recorder{}
		r.DefaultRoutes = []message.NodeID{nid(1)}
		return r
	}())
	head.StartSource(app, 0, 2048)

	waitFor(t, 5*time.Second, "tail of chain to receive data", func() bool {
		return algs[hops-1].ReceivedBytes(app) > 64*1024
	})
	// Intermediate hops forwarded rather than consumed.
	for i := 0; i < hops-1; i++ {
		if got := algs[i].ReceivedBytes(app); got != 0 {
			t.Errorf("hop %d consumed %d bytes, want 0 (pure forwarder)", i, got)
		}
		if algs[i].SeenMessages(app) == 0 {
			t.Errorf("hop %d saw no messages", i)
		}
	}
}

func TestMulticastCopiesToAllDownstreams(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 9
	sinks := []*recorder{{}, {}, {}}
	for i, s := range sinks {
		startNode(t, n, nid(10+i), s)
	}
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(10), nid(11), nid(12)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "all sinks to receive copies", func() bool {
		for _, s := range sinks {
			if s.ReceivedBytes(app) < 32*1024 {
				return false
			}
		}
		return true
	})
}

func TestPerNodeBandwidthEmulation(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	const cap = 400 << 10 // 400 KiB/s total at the source

	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.TotalBW = cap
	})
	a.StartSource(app, 0, 4096)

	time.Sleep(300 * time.Millisecond) // let shaping settle
	before := sink.ReceivedBytes(app)
	const window = 700 * time.Millisecond
	time.Sleep(window)
	rate := float64(sink.ReceivedBytes(app)-before) / window.Seconds()
	if rate < cap*0.6 || rate > cap*1.35 {
		t.Errorf("shaped rate = %.0f B/s, want ~%d", rate, cap)
	}
}

// TestSetBandwidthAtRuntimeThrottles imposes each class of cap on the fly,
// as the observer would, on a link that has already carried unshaped
// traffic over vnet's vectored write: its first paced message builds the
// link's write buffer, a link cap retunes the limiter inside the sender, a
// download or total cap at the sink paces every receiver through the
// node's one down shaper.
func TestSetBandwidthAtRuntimeThrottles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		class  protocol.BandwidthClass
		atSink bool // cap the sink's budget rather than the source's
	}{
		{"Up", protocol.BandwidthUp, false},
		{"Link", protocol.BandwidthLink, false},
		{"Down", protocol.BandwidthDown, true},
		{"Total", protocol.BandwidthTotal, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := vnet.New()
			defer n.Close()
			const app = 1
			sink := &recorder{}
			b := startNode(t, n, nid(2), sink)
			src := &recorder{}
			src.DefaultRoutes = []message.NodeID{nid(2)}
			a := startNode(t, n, nid(1), src)
			a.StartSource(app, 0, 4096)

			waitFor(t, 5*time.Second, "initial traffic", func() bool {
				return sink.ReceivedBytes(app) > 256<<10
			})
			const cap = 100 << 10
			cmd := protocol.SetBandwidth{Class: tc.class, Rate: cap}
			if tc.class == protocol.BandwidthLink {
				cmd.Peer = nid(2)
			}
			if tc.atSink {
				b.SetBandwidthLocal(cmd)
			} else {
				a.SetBandwidthLocal(cmd)
			}
			time.Sleep(300 * time.Millisecond)
			before := sink.ReceivedBytes(app)
			const window = 700 * time.Millisecond
			time.Sleep(window)
			rate := float64(sink.ReceivedBytes(app)-before) / window.Seconds()
			if rate < cap*0.5 || rate > cap*1.5 {
				t.Errorf("throttled rate = %.0f B/s, want ~%d", rate, cap)
			}
		})
	}
}

func TestPerLinkBandwidth(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	fastSink, slowSink := &recorder{}, &recorder{}
	startNode(t, n, nid(2), fastSink)
	startNode(t, n, nid(3), slowSink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2), nid(3)}
	const slowCap = 60 << 10
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.SendBuf = 10000 // large buffers: no back-pressure coupling
		c.RecvBuf = 10000
	})
	capLink(a, nid(3), slowCap)
	a.StartSource(app, 300<<10, 4096)

	time.Sleep(300 * time.Millisecond)
	slowBefore := slowSink.ReceivedBytes(app)
	fastBefore := fastSink.ReceivedBytes(app)
	const window = time.Second
	time.Sleep(window)
	slowRate := float64(slowSink.ReceivedBytes(app)-slowBefore) / window.Seconds()
	fastRate := float64(fastSink.ReceivedBytes(app)-fastBefore) / window.Seconds()
	if slowRate > slowCap*1.5 {
		t.Errorf("slow link rate = %.0f, want <= ~%d", slowRate, slowCap)
	}
	if fastRate < slowRate*2 {
		t.Errorf("fast link (%.0f) not decoupled from slow link (%.0f)", fastRate, slowRate)
	}
}

func TestBackPressureThrottlesWholePath(t *testing.T) {
	// Small buffers + a slow sink cap must throttle the source end to end
	// (the paper's back-pressure effect, Fig. 6b).
	n := vnet.New(vnet.WithPipeCapacity(8 << 10))
	defer n.Close()
	const app = 1
	const cap = 50 << 10

	sink := &recorder{}
	startNode(t, n, nid(3), sink, func(c *engine.Config) {
		c.RecvBuf, c.SendBuf = 5, 5
		c.DownBW = cap
	})
	mid := &recorder{}
	mid.DefaultRoutes = []message.NodeID{nid(3)}
	startNode(t, n, nid(2), mid, func(c *engine.Config) {
		c.RecvBuf, c.SendBuf = 5, 5
	})
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.RecvBuf, c.SendBuf = 5, 5
	})
	a.StartSource(app, 0, 4096)

	time.Sleep(500 * time.Millisecond) // converge
	before := a.Counters()
	const window = time.Second
	time.Sleep(window)
	after := a.Counters()
	srcRate := float64(after.BytesOut-before.BytesOut) / window.Seconds()
	if srcRate > cap*2 {
		t.Errorf("source output %.0f B/s despite %d B/s bottleneck: no back-pressure", srcRate, cap)
	}
}

// TestBackPressureAcrossMerge is the Fig 6 contract on the smallest
// topology that has its shape — two branches merging into one shaped
// bottleneck, A->{B,C}, B->D, C->D, D->E with D's uplink capped — run at
// several core counts, because the contract must not depend on how many
// goroutines the host runs at once. Both halves are asserted: with both
// branches up, the source-side edge AB settles at its share of the
// bottleneck (half: D forwards B's and C's copies alike), and once B is
// stopped the surviving branch keeps carrying traffic at the whole of it.
func TestBackPressureAcrossMerge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			backPressureAcrossMerge(t)
		})
	}
}

func backPressureAcrossMerge(t *testing.T) {
	const (
		app        = 1
		bottleneck = 30 << 10
		settle     = time.Second
		window     = time.Second
	)
	// Shallow pipes and 5-slot rings are fig6.go's.
	n := vnet.New(vnet.WithPipeCapacity(4 << 10))
	defer n.Close()
	a, b, c, d, e := nid(1), nid(2), nid(3), nid(4), nid(5)
	small := func(cfg *engine.Config) { cfg.RecvBuf, cfg.SendBuf = 5, 5 }
	node := func(id message.NodeID, routes []message.NodeID, mut ...func(*engine.Config)) *engine.Engine {
		alg := &recorder{}
		alg.DefaultRoutes = routes
		return startNode(t, n, id, alg, append(mut, small)...)
	}
	node(e, nil)
	node(d, []message.NodeID{e}, func(cfg *engine.Config) { cfg.UpBW = bottleneck })
	cEng := node(c, []message.NodeID{d})
	bEng := node(b, []message.NodeID{d})
	aEng := node(a, []message.NodeID{b, c}, func(cfg *engine.Config) { cfg.TotalBW = 400 << 10 })
	aEng.StartSource(app, 0, 1024)

	// edgeRate samples a sender's per-link byte meter over the window.
	edgeRate := func(from *engine.Engine, to message.NodeID) float64 {
		read := func() int64 {
			for _, l := range from.Snapshot().Downstream {
				if l.Peer == to {
					return l.BytesTotal
				}
			}
			return 0
		}
		before := read()
		time.Sleep(window)
		return float64(read()-before) / window.Seconds()
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if got < want/2 || got > want*3/2 {
			t.Errorf("%s = %.1f KBps, want %.1f (±50%%)", name, got/1024, want/1024)
		}
	}

	time.Sleep(settle)
	near("both branches up: AB", edgeRate(aEng, b), bottleneck/2)

	bEng.Stop()
	time.Sleep(settle)
	near("B stopped: CD", edgeRate(cEng, d), bottleneck)
}

func TestPingMeasuresLatency(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	peer := &recorder{}
	startNode(t, n, nid(2), peer)
	r := &recorder{}
	a := startNode(t, n, nid(1), r)

	a.Ping(nid(2))
	waitFor(t, 3*time.Second, "latency report", func() bool {
		return r.count(protocol.TypeLatency) > 0
	})
	lat := r.controlOf(protocol.TypeLatency)[0]
	tp, err := protocol.DecodeThroughput(lat.payload)
	if err != nil {
		t.Fatalf("decode latency: %v", err)
	}
	if tp.Peer != nid(2) {
		t.Errorf("latency peer = %v, want %v", tp.Peer, nid(2))
	}
	if tp.Rate <= 0 || tp.Rate > float64(time.Second) {
		t.Errorf("rtt = %v ns, implausible", tp.Rate)
	}
}

func TestThroughputReportsReachAlgorithm(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "UpThroughput at sink and DownThroughput at source", func() bool {
		return sink.count(protocol.TypeUpThroughput) > 0 && src.count(protocol.TypeDownThroughput) > 0
	})
}

func TestNodeFailureNotifiesPeersAndCascades(t *testing.T) {
	// A -> B -> C; kill B abruptly. A must see LinkDown; C must see
	// LinkDown and BrokenSource for the app (the domino effect).
	n := vnet.New()
	defer n.Close()
	const app = 5

	cAlg := &recorder{}
	startNode(t, n, nid(3), cAlg)
	bAlg := &recorder{}
	bAlg.DefaultRoutes = []message.NodeID{nid(3)}
	startNode(t, n, nid(2), bAlg)
	aAlg := &recorder{}
	aAlg.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), aAlg)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "traffic to reach C", func() bool {
		return cAlg.ReceivedBytes(app) > 10*1024
	})
	n.SeverNode(nid(2).Addr()) // crash B's connectivity

	waitFor(t, 5*time.Second, "A to observe LinkDown", func() bool {
		return aAlg.count(protocol.TypeLinkDown) > 0
	})
	waitFor(t, 5*time.Second, "C to observe BrokenSource", func() bool {
		return cAlg.count(protocol.TypeBrokenSource) > 0
	})
	bs := cAlg.controlOf(protocol.TypeBrokenSource)[0]
	got, err := protocol.DecodeBrokenSource(bs.payload)
	if err != nil {
		t.Fatalf("decode BrokenSource: %v", err)
	}
	if got.App != app {
		t.Errorf("BrokenSource app = %d, want %d", got.App, app)
	}
}

func TestGracefulStopMidTraffic(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 4096)

	waitFor(t, 5*time.Second, "traffic", func() bool {
		return sink.ReceivedBytes(app) > 10*1024
	})
	done := make(chan struct{})
	go func() {
		a.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung mid-traffic")
	}
	a.Stop() // idempotent
}

func TestStopSourceStopsTraffic(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)
	waitFor(t, 5*time.Second, "traffic", func() bool {
		return sink.ReceivedBytes(app) > 10*1024
	})
	a.StopSource(app)
	time.Sleep(200 * time.Millisecond) // in-flight drains
	before := sink.ReceivedBytes(app)
	time.Sleep(300 * time.Millisecond)
	if after := sink.ReceivedBytes(app); after != before {
		t.Errorf("traffic continued after StopSource: %d -> %d", before, after)
	}
}

func TestUpDownstreamsAndSnapshot(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2
	sink := &recorder{}
	b := startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "links to form", func() bool {
		return len(a.Downstreams()) == 1 && len(b.Upstreams()) == 1
	})
	if got := a.Downstreams()[0]; got != nid(2) {
		t.Errorf("A downstream = %v, want %v", got, nid(2))
	}
	if got := b.Upstreams()[0]; got != nid(1) {
		t.Errorf("B upstream = %v, want %v", got, nid(1))
	}
	waitFor(t, 5*time.Second, "nonzero measured rates", func() bool {
		return a.LinkRate(nid(2), true) > 0 && b.LinkRate(nid(1), false) > 0
	})
	snap := b.Snapshot()
	if snap.Node != nid(2) || len(snap.Upstreams) != 1 || snap.MsgsIn == 0 {
		t.Errorf("Snapshot = %+v", snap)
	}
}

func TestAfterDeliversTick(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	r := &recorder{}
	a := startNode(t, n, nid(1), r)
	a.After(20*time.Millisecond, 42)
	waitFor(t, 3*time.Second, "tick", func() bool {
		return r.count(protocol.TypeTick) > 0
	})
	tick := r.controlOf(protocol.TypeTick)[0]
	tk, err := protocol.DecodeTick(tick.payload)
	if err != nil || tk.Kind != 42 {
		t.Errorf("tick = %+v, %v; want kind 42", tk, err)
	}
}

func TestInactivityDetection(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2
	sink := &recorder{}
	b := startNode(t, n, nid(2), sink, func(c *engine.Config) {
		c.InactivityTimeout = 300 * time.Millisecond
		c.StatusInterval = 50 * time.Millisecond
	})
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)
	waitFor(t, 5*time.Second, "traffic", func() bool {
		return sink.ReceivedBytes(app) > 10*1024
	})
	// Silence the source; B must eventually declare the upstream dead
	// without any heartbeats.
	a.StopSource(app)
	waitFor(t, 5*time.Second, "inactivity LinkDown at B", func() bool {
		return sink.count(protocol.TypeLinkDown) > 0
	})
	if ups := b.Upstreams(); len(ups) != 0 {
		t.Errorf("B still lists upstreams %v after inactivity teardown", ups)
	}
}

// holdMerger exercises the hold mechanism: it holds data messages until it
// has one from each of two upstreams, then emits a merged message.
type holdMerger struct {
	recorder
	dest   message.NodeID
	held   map[message.NodeID][]*message.Msg
	merged int
}

func (h *holdMerger) Process(m *message.Msg) engine.Verdict {
	if !m.IsData() {
		return h.recorder.Process(m)
	}
	if h.held == nil {
		h.held = make(map[message.NodeID][]*message.Msg)
	}
	from := m.Sender()
	h.held[from] = append(h.held[from], m)
	var ready []message.NodeID
	for peer, msgs := range h.held {
		if len(msgs) > 0 {
			ready = append(ready, peer)
		}
	}
	if len(ready) < 2 {
		return engine.Hold
	}
	// Merge one message from each upstream into a new one.
	var payload []byte
	for _, peer := range ready {
		held := h.held[peer][0]
		h.held[peer] = h.held[peer][1:]
		payload = append(payload, held.Payload()...)
		if held != m {
			h.API.Finish(held)
		}
	}
	out := h.API.NewMsg(message.FirstDataType, m.App(), m.Seq(), len(payload))
	copy(out.Payload(), payload)
	h.API.SendNew(out, h.dest)
	h.merged++
	// m itself was just consumed into the merge: it is one of the held
	// ones; report Done so the engine releases the delivery reference.
	return engine.Done
}

func TestHoldMechanismMergesStreams(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 6
	sink := &recorder{}
	startNode(t, n, nid(4), sink)
	merger := &holdMerger{dest: nid(4)}
	startNode(t, n, nid(3), merger)
	for i := 1; i <= 2; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(3)}
		e := startNode(t, n, nid(i), src)
		e.StartSource(app, 100<<10, 1000)
	}
	waitFor(t, 5*time.Second, "merged output at sink", func() bool {
		return sink.ReceivedBytes(app) > 20*1000
	})
	// Merged messages carry the concatenated payloads of two inputs.
	waitFor(t, 2*time.Second, "sink messages", func() bool {
		return sink.SeenMessages(app) > 0
	})
	bytes, msgs := sink.ReceivedBytes(app), sink.SeenMessages(app)
	if avg := bytes / msgs; avg != 2000 {
		t.Errorf("average merged payload = %d, want 2000", avg)
	}
}

func TestObserverlessTraceIsNoop(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	a := startNode(t, n, nid(1), &recorder{})
	a.Trace("hello %d", 42) // must not panic or block without an observer
	a.Stop()
	if d := a.Counters().MsgsDropped; d != 0 {
		t.Errorf("a trace with no observer to send to counted %d dropped messages", d)
	}
}

func TestSendNewToUnreachableDestinationDropsGracefully(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	r := &recorder{}
	a := startNode(t, n, nid(1), r)
	m := a.NewControl(protocol.TypeCustom, 0, protocol.Custom{Kind: 1}.Encode())
	a.SendNew(m, nid(99)) // no such node
	waitFor(t, 5*time.Second, "LinkDown after failed dial", func() bool {
		return r.count(protocol.TypeLinkDown) > 0
	})
	c := a.Counters()
	if c.MsgsDropped == 0 {
		t.Error("failed send not counted as dropped")
	}
}

func TestMeasureBandwidthDeliversEstimate(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	peer := &recorder{}
	startNode(t, n, nid(2), peer)
	r := &recorder{}
	const cap = 200 << 10
	a := startNode(t, n, nid(1), r, func(c *engine.Config) {
		c.UpBW = cap // the probe burst is paced by the emulated uplink
	})
	a.Do(func(api engine.API) { api.MeasureBandwidth(nid(2)) })
	waitFor(t, 5*time.Second, "bandwidth estimate", func() bool {
		return r.count(protocol.TypeBandwidthEst) > 0
	})
	est := r.controlOf(protocol.TypeBandwidthEst)[0]
	tp, err := protocol.DecodeThroughput(est.payload)
	if err != nil {
		t.Fatalf("decode estimate: %v", err)
	}
	if tp.Peer != nid(2) {
		t.Errorf("estimate peer = %v", tp.Peer)
	}
	// The estimate should be in the ballpark of the shaped uplink.
	if tp.Rate < cap/4 || tp.Rate > cap*4 {
		t.Errorf("estimated bandwidth = %.0f B/s, want around %d", tp.Rate, cap)
	}
}

func TestMeasureBandwidthUnshapedIsFast(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	peer := &recorder{}
	startNode(t, n, nid(2), peer)
	r := &recorder{}
	a := startNode(t, n, nid(1), r)
	a.Do(func(api engine.API) { api.MeasureBandwidth(nid(2)) })
	waitFor(t, 5*time.Second, "bandwidth estimate", func() bool {
		return r.count(protocol.TypeBandwidthEst) > 0
	})
	est := r.controlOf(protocol.TypeBandwidthEst)[0]
	tp, err := protocol.DecodeThroughput(est.payload)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Rate < 1<<20 {
		t.Errorf("unshaped estimate = %.0f B/s, want >= 1 MiB/s", tp.Rate)
	}
}

// orderChecker verifies per-link FIFO delivery of data sequence numbers.
type orderChecker struct {
	recorder
	mu      sync.Mutex
	lastSeq map[message.NodeID]uint32
	ooo     int
}

func (o *orderChecker) Process(m *message.Msg) engine.Verdict {
	if m.IsData() {
		o.mu.Lock()
		if o.lastSeq == nil {
			o.lastSeq = make(map[message.NodeID]uint32)
		}
		if last, ok := o.lastSeq[m.Sender()]; ok && m.Seq() <= last {
			o.ooo++
		}
		o.lastSeq[m.Sender()] = m.Seq()
		o.mu.Unlock()
	}
	return o.recorder.Process(m)
}

// TestParkedRetryPreservesOrder drives a source through a congested
// relay (tiny buffers, so a tiny parked budget) and checks that the sink sees
// strictly increasing sequence numbers: the parked/"remaining senders"
// retry path must not reorder messages.
func TestParkedRetryPreservesOrder(t *testing.T) {
	n := vnet.New(vnet.WithPipeCapacity(4 << 10))
	defer n.Close()
	const app = 1
	sink := &orderChecker{}
	startNode(t, n, nid(3), sink, func(c *engine.Config) {
		c.DownBW = 60 << 10
		c.RecvBuf, c.SendBuf = 3, 3
	})
	relay := &recorder{}
	relay.DefaultRoutes = []message.NodeID{nid(3)}
	startNode(t, n, nid(2), relay, func(c *engine.Config) {
		c.RecvBuf, c.SendBuf = 3, 3
	})
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.RecvBuf, c.SendBuf = 3, 3
	})
	a.StartSource(app, 0, 2048)
	waitFor(t, 10*time.Second, "congested delivery", func() bool {
		return sink.ReceivedBytes(app) > 100<<10
	})
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.ooo != 0 {
		t.Errorf("%d out-of-order deliveries through parked retry", sink.ooo)
	}
}

// TestReconnectReplacesStaleLink restarts a peer node under the same
// identity and verifies the new connection takes over.
func TestReconnectReplacesStaleLink(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	sink1 := &recorder{}
	b := startNode(t, n, nid(2), sink1)

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 40<<10, 1024)
	waitFor(t, 5*time.Second, "initial traffic", func() bool {
		return sink1.ReceivedBytes(app) > 10<<10
	})
	// Kill the sink; the source sees the link fail and drops the sender.
	b.Stop()
	waitFor(t, 5*time.Second, "source notices dead sink", func() bool {
		return len(a.Downstreams()) == 0
	})
	// Restart the sink under the same identity; the source's algorithm
	// keeps sending to the same NodeID, so a fresh link must form.
	sink2 := &recorder{}
	startNode(t, n, nid(2), sink2)
	waitFor(t, 10*time.Second, "traffic resumes to the reincarnated node", func() bool {
		return sink2.ReceivedBytes(app) > 10<<10
	})
}

// TestCompetingSessionsShareRelay runs two application sessions crossing
// one relay (the paper's "multiple competing traffic sessions" design
// goal) and checks both make proportional progress with per-app
// accounting intact.
func TestCompetingSessionsShareRelay(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	sinkA, sinkB := &recorder{}, &recorder{}
	startNode(t, n, nid(11), sinkA)
	startNode(t, n, nid(12), sinkB)
	relay := &recorder{}
	relay.Routes = map[message.Type][]message.NodeID{}
	relay.DefaultRoutes = nil
	// Route by app via a custom wrapper: app 1 -> sinkA, app 2 -> sinkB.
	router := &appRouter{routes: map[uint32]message.NodeID{1: nid(11), 2: nid(12)}}
	startNode(t, n, nid(3), router, func(c *engine.Config) {
		c.UpBW = 300 << 10 // shared bottleneck
	})
	for i, app := range []uint32{1, 2} {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(3)}
		e := startNode(t, n, nid(i+1), src)
		e.StartSource(app, 0, 2048)
	}
	time.Sleep(500 * time.Millisecond)
	beforeA, beforeB := sinkA.ReceivedBytes(1), sinkB.ReceivedBytes(2)
	const window = 1500 * time.Millisecond
	time.Sleep(window)
	rateA := float64(sinkA.ReceivedBytes(1)-beforeA) / window.Seconds()
	rateB := float64(sinkB.ReceivedBytes(2)-beforeB) / window.Seconds()
	if rateA <= 0 || rateB <= 0 {
		t.Fatalf("a session starved: A=%.0f B=%.0f", rateA, rateB)
	}
	// Both sessions share the 300 KBps bottleneck roughly fairly.
	ratio := rateA / rateB
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("unfair sharing: A=%.0f B/s, B=%.0f B/s", rateA, rateB)
	}
	total := rateA + rateB
	if total < 150<<10 || total > 450<<10 {
		t.Errorf("aggregate %.0f B/s through a 300 KiB/s bottleneck", total)
	}
	// No cross-contamination between the applications.
	if sinkA.ReceivedBytes(2) != 0 || sinkB.ReceivedBytes(1) != 0 {
		t.Error("session data leaked across applications")
	}
}

// appRouter forwards data by application id.
type appRouter struct {
	recorder
	routes map[uint32]message.NodeID
}

func (a *appRouter) Process(m *message.Msg) engine.Verdict {
	if m.IsData() {
		if dest, ok := a.routes[m.App()]; ok {
			a.API.Send(m, dest)
		}
		return engine.Done
	}
	return a.recorder.Process(m)
}
