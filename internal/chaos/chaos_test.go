package chaos_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/tree"
	"repro/internal/vnet"
)

func TestChaosGenerateDeterministic(t *testing.T) {
	cfg := chaos.ScheduleConfig{Seed: 11, Nodes: 16, Rounds: 8, MaxKill: 3}
	a := chaos.Generate(cfg)
	b := chaos.Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds produced different schedules")
	}
	cfg.Seed = 12
	if c := chaos.Generate(cfg); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestChaosGenerateProtectsSource(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		events := chaos.Generate(chaos.ScheduleConfig{
			Seed: seed, Nodes: 8, Rounds: 10, MaxKill: 4,
		})
		if len(events) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		for _, ev := range events {
			for _, n := range ev.Nodes {
				if n == 0 {
					t.Fatalf("seed %d: %s targets the source", seed, ev)
				}
			}
			if ev.Kind == chaos.Flaky && (ev.Link[0] == 0 || ev.Link[1] == 0) {
				t.Fatalf("seed %d: %s degrades a source link", seed, ev)
			}
			if ev.Kind == chaos.Partition {
				src := -1
				for gi, g := range ev.Groups {
					for _, n := range g {
						if n == 0 {
							src = gi
						}
					}
				}
				if src != 0 {
					t.Fatalf("seed %d: %s puts the source in the minority side", seed, ev)
				}
			}
		}
	}
}

// soakCluster is a live multicast session the chaos runner torments: one
// source (node 0) streaming to N-1 receivers over self-organizing
// dissemination trees, with the observer as an out-of-band control plane
// (unlisted in partitions, so faults never take the testbed itself down).
type soakCluster struct {
	t    *testing.T
	net  *vnet.Network
	obs  *observer.Observer
	ids  []message.NodeID
	engs []*engine.Engine // current engine per index; stale after a kill
	trs  []*tree.Tree     // current algorithm per index
	all  []*engine.Engine // every engine ever started, for loss totals

	// obsIDs, when it lists more than one address, switches every node to
	// a federated observer tier: engines get the whole list (failover
	// order) and a per-node seed for reproducible reconnect jitter.
	obsIDs []message.NodeID

	alive     []bool
	reachable []bool  // shares a partition group with the source
	baseline  []int64 // ReceivedBytes snapshot at the last Mark
}

const (
	soakApp     = 1
	soakRate    = 256 << 10
	soakMsgSize = 1024
)

var soakObserverID = message.MakeID("10.255.0.1", 9000)

func soakID(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.%d.%d", i/250, i%250+1), 7000)
}

func newSoakCluster(t *testing.T, n int) *soakCluster {
	t.Helper()
	sc := &soakCluster{
		t:         t,
		net:       vnet.New(vnet.WithSeed(42)),
		ids:       make([]message.NodeID, n),
		engs:      make([]*engine.Engine, n),
		trs:       make([]*tree.Tree, n),
		alive:     make([]bool, n),
		reachable: make([]bool, n),
		baseline:  make([]int64, n),
	}
	for i := range sc.ids {
		sc.ids[i] = soakID(i)
		sc.reachable[i] = true
	}
	obs, err := observer.New(observer.Config{
		ID:              soakObserverID,
		Transport:       engine.VNet{Net: sc.net},
		RequestInterval: 200 * time.Millisecond,
		BootstrapCount:  n,
		Seed:            1,
	})
	if err != nil {
		t.Fatalf("observer: %v", err)
	}
	if err := obs.Start(); err != nil {
		t.Fatalf("observer start: %v", err)
	}
	sc.obs = obs
	// Receivers first, source last, so the source's bootstrap reply spans
	// the membership and the deploy announce reaches everyone.
	for i := n - 1; i >= 0; i-- {
		if err := sc.startNode(i); err != nil {
			t.Fatalf("boot node %d: %v", i, err)
		}
	}
	return sc
}

func (sc *soakCluster) startNode(i int) error {
	alg := &tree.Tree{
		Variant:    tree.Random,
		App:        soakApp,
		LastMile:   1 << 20,
		AutoRejoin: true,
	}
	observers := []message.NodeID{soakObserverID}
	if len(sc.obsIDs) > 0 {
		observers = sc.obsIDs
	}
	e, err := engine.New(engine.Config{
		ID:                sc.ids[i],
		Transport:         engine.VNet{Net: sc.net},
		Algorithm:         alg,
		Observers:         observers,
		Seed:              int64(i + 1),
		StatusInterval:    50 * time.Millisecond,
		InactivityTimeout: 600 * time.Millisecond,
		RetryBase:         50 * time.Millisecond,
		// Overload protections, exercised by the saturated round: a
		// backstop buffered-bytes budget and slow-peer shedding slow
		// enough that healthy rounds never trip it.
		MemoryBudget:   1 << 20,
		StallThreshold: time.Second,
	})
	if err != nil {
		return err
	}
	if err := e.Start(); err != nil {
		return err
	}
	sc.engs[i], sc.trs[i] = e, alg
	sc.all = append(sc.all, e)
	sc.alive[i] = true
	return nil
}

func (sc *soakCluster) stop() {
	for i, e := range sc.engs {
		if sc.alive[i] && e != nil {
			e.Stop()
		}
	}
	sc.obs.Stop()
	sc.net.Close()
}

// session boots the dissemination: deploy the source, join everyone, and
// wait until every receiver is in the tree and receiving.
func (sc *soakCluster) session() {
	sc.t.Helper()
	n := len(sc.ids)
	if !sc.obs.WaitForNodes(n, 10*time.Second) {
		sc.t.Fatalf("bootstrap incomplete: %d alive", len(sc.obs.Alive()))
	}
	time.Sleep(200 * time.Millisecond) // boot replies propagate
	sc.obs.Deploy(sc.ids[0], soakApp, soakRate, soakMsgSize)
	time.Sleep(300 * time.Millisecond) // announce flood
	// Join through contact (i-1)/2 so the tree has depth: the Random
	// variant accepts wherever the query lands, and zero contacts would
	// collapse the session into a star whose kills only ever hit leaves.
	for i := 1; i < n; i++ {
		sc.obs.Join(sc.ids[i], soakApp, sc.ids[(i-1)/2])
		deadline := time.Now().Add(10 * time.Second)
		for !sc.trs[i].InSession() {
			if time.Now().After(deadline) {
				sc.t.Fatalf("node %d never joined", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	sc.markBaselines()
	deadline := time.Now().Add(15 * time.Second)
	for !sc.steady() {
		if time.Now().After(deadline) {
			sc.t.Fatalf("initial session never converged:\n%s", sc.describe())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// steady is the invariant the chaos runner polls: every node that is both
// alive and on the source's side of any partition is in the tree and has
// received bytes since the last fault was applied.
func (sc *soakCluster) steady() bool {
	for i := 1; i < len(sc.ids); i++ {
		if !sc.alive[i] || !sc.reachable[i] {
			continue
		}
		if !sc.trs[i].InSession() {
			return false
		}
		if sc.trs[i].ReceivedBytes() <= sc.baseline[i] {
			return false
		}
	}
	return true
}

func (sc *soakCluster) markBaselines() {
	for i := 1; i < len(sc.ids); i++ {
		if sc.alive[i] {
			sc.baseline[i] = sc.trs[i].ReceivedBytes()
		}
	}
}

func (sc *soakCluster) describe() string {
	out := ""
	for i := 1; i < len(sc.ids); i++ {
		out += fmt.Sprintf("  node %2d alive=%v reachable=%v inSession=%v recv=%d base=%d\n",
			i, sc.alive[i], sc.reachable[i], sc.trs[i].InSession(),
			sc.trs[i].ReceivedBytes(), sc.baseline[i])
	}
	return out
}

// ops adapts the cluster to the runner's closure interface.
func (sc *soakCluster) ops() chaos.Ops {
	return chaos.Ops{
		Kill: func(n int) {
			sc.alive[n] = false
			sc.net.CrashNode(sc.ids[n].Addr())
			sc.engs[n].Stop()
		},
		Restart: func(n int) error {
			if err := sc.startNode(n); err != nil {
				return err
			}
			// The fresh engine re-registers with the observer; issue the
			// join once its control route is back.
			deadline := time.Now().Add(10 * time.Second)
			for !sc.obs.Join(sc.ids[n], soakApp, message.NodeID{}) {
				if time.Now().After(deadline) {
					return fmt.Errorf("node %d never re-registered", n)
				}
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		},
		Partition: func(groups [][]int) {
			addrGroups := make([][]string, len(groups))
			for gi, g := range groups {
				srcSide := false
				for _, n := range g {
					addrGroups[gi] = append(addrGroups[gi], sc.ids[n].Addr())
					if n == 0 {
						srcSide = true
					}
				}
				for _, n := range g {
					sc.reachable[n] = srcSide
				}
			}
			sc.net.Partition(addrGroups...)
		},
		Heal: func() {
			sc.net.Heal()
			for i := range sc.reachable {
				sc.reachable[i] = true
			}
		},
		Flaky: func(a, b int, dropProb float64, stall time.Duration) {
			sc.net.Flaky(sc.ids[a].Addr(), sc.ids[b].Addr(), dropProb, stall)
		},
		Saturate: func(n int, rate int64) {
			if !sc.alive[n] {
				return
			}
			sc.engs[n].SetBandwidthLocal(protocol.SetBandwidth{
				Class: protocol.BandwidthUp, Rate: rate,
			})
		},
		DialStorm: sc.dialStorm,
		Mark:      func(chaos.Event) { sc.markBaselines() },
		Recovered: sc.steady,
		Dropped: func() int64 {
			var total int64
			for _, e := range sc.all {
				total += e.Counters().BytesDropped
			}
			return total
		},
	}
}

// dialStorm floods each target's listener with half-open connections —
// rate dials/sec per target for d — from a mix of unique spoofed hosts
// (exercising the handshake-token cap) and one repeat-offender host
// (exercising per-source rate limiting and the greylist). No connection
// ever sends a hello: each lingers a while pinning its handshake token,
// then hangs up without a goodbye.
func (sc *soakCluster) dialStorm(nodes []int, rate int64, d time.Duration) {
	const linger = 300 * time.Millisecond
	interval := time.Second / time.Duration(rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	var wg sync.WaitGroup
	seq := 0
	for start := time.Now(); time.Since(start) < d; time.Sleep(interval) {
		for _, idx := range nodes {
			seq++
			src := fmt.Sprintf("10.99.%d.%d:%d", seq/250%250, seq%250+1, 40000+seq%20000)
			if seq%4 == 0 { // repeat offender: same host, fresh port
				src = fmt.Sprintf("10.99.250.250:%d", 40000+seq)
			}
			wg.Add(1)
			go func(src, dst string) {
				defer wg.Done()
				conn, err := sc.net.DialFrom(src, dst)
				if err != nil {
					return // backlog overflow: the storm sheds itself
				}
				time.Sleep(linger)
				conn.Close()
			}(src, sc.ids[idx].Addr())
		}
	}
	wg.Wait()
}

// TestChaosSoakSurvivesChurn is the acceptance soak: a seeded schedule of
// kills, restarts, partitions and flaky links against a 16-node multicast
// session. After every event the tree must repair itself and delivery must
// resume within the recovery timeout, and tearing the cluster down must
// release every goroutine.
func TestChaosSoakSurvivesChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	goroutinesBefore := runtime.NumGoroutine()

	sc := newSoakCluster(t, 16)
	sc.session()

	schedule := chaos.Generate(chaos.ScheduleConfig{
		Seed:    7,
		Nodes:   16,
		Rounds:  6,
		MaxKill: 2,
		Gap:     150 * time.Millisecond,
	})
	r := &chaos.Runner{
		Ops:             sc.ops(),
		RecoveryTimeout: 30 * time.Second,
		Logf:            t.Logf,
	}
	rep := r.Run(schedule)
	t.Logf("\n%s", rep.Render())
	if rep.Unrecovered != 0 {
		t.Errorf("%d events never recovered:\n%s", rep.Unrecovered, sc.describe())
	}

	// One saturated round: throttle every receiver's uplink to half the
	// stream rate so interior forwarding queues stay full, then kill two
	// high-fanout nodes mid-overload. Control traffic rides the priority
	// lane, so the repair (failure detection, rejoin, re-adoption) must
	// still complete instead of waiting behind the queued data.
	receivers := make([]int, 0, 15)
	for i := 1; i < 16; i++ {
		receivers = append(receivers, i)
	}
	saturated := []chaos.Event{
		{Kind: chaos.Saturate, Nodes: receivers, Rate: soakRate / 2},
		{After: 500 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{1, 2}},
		{After: 150 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{1, 2}},
		{After: 150 * time.Millisecond, Kind: chaos.Saturate, Nodes: receivers, Rate: 0},
	}
	satRep := r.Run(saturated)
	t.Logf("saturated round:\n%s", satRep.Render())
	if satRep.Unrecovered != 0 {
		t.Errorf("%d saturated events never recovered:\n%s",
			satRep.Unrecovered, sc.describe())
	}

	// The schedule undoes every fault, so the full session must be intact.
	sc.markBaselines()
	deadline := time.Now().Add(10 * time.Second)
	for !sc.steady() {
		if time.Now().After(deadline) {
			t.Fatalf("cluster degraded after churn:\n%s", sc.describe())
		}
		time.Sleep(20 * time.Millisecond)
	}

	sc.stop()
	// Every engine, observer and vnet goroutine must wind down.
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosDialStorm points a connection storm at the stream's interior
// while it is live: half-open connections from thousands of spoofed
// sources hammer the source and two interior forwarders, with a kill and
// a restart landing between the storm waves. The admission gate must shed
// the storm — in-flight handshakes stay under the cap, repeat offenders
// get greylisted — without starving established links: delivery to every
// receiver continues, and the restarted node rejoins through the very
// listeners being stormed.
func TestChaosDialStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const nodes = 10
	sc := newSoakCluster(t, nodes)
	defer sc.stop()
	sc.session()

	schedule := []chaos.Event{
		{After: 100 * time.Millisecond, Kind: chaos.DialStorm,
			Nodes: []int{0, 1, 2}, Rate: 300, Duration: time.Second},
		{After: 100 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{3}},
		{After: 100 * time.Millisecond, Kind: chaos.DialStorm,
			Nodes: []int{0, 1}, Rate: 300, Duration: 500 * time.Millisecond},
		{After: 100 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{3}},
	}
	r := &chaos.Runner{
		Ops:             sc.ops(),
		RecoveryTimeout: 30 * time.Second,
		Logf:            t.Logf,
	}
	rep := r.Run(schedule)
	t.Logf("\n%s", rep.Render())
	if rep.Unrecovered != 0 {
		t.Errorf("%d events never recovered:\n%s", rep.Unrecovered, sc.describe())
	}

	// The gate engaged rather than absorbed: in-flight handshakes never
	// exceeded the cap on any stormed node, and refusals were issued.
	var shed int64
	for _, i := range []int{0, 1, 2} {
		st := sc.engs[i].Admission()
		if st.InFlightPeak > admission.DefaultMaxHandshakes {
			t.Errorf("node %d: in-flight handshake peak %d exceeds cap %d",
				i, st.InFlightPeak, admission.DefaultMaxHandshakes)
		}
		shed += st.ShedBusy + st.ShedRate + st.ShedGreylist
	}
	if shed == 0 {
		t.Error("storm was never shed: admission gate did not engage")
	}

	// With the storm over and every fault undone, the session is intact.
	sc.markBaselines()
	deadline := time.Now().Add(10 * time.Second)
	for !sc.steady() {
		if time.Now().After(deadline) {
			t.Fatalf("cluster degraded after the storm:\n%s", sc.describe())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
