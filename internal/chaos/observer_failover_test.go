package chaos_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/tree"
)

// controlSteady is the control-plane half of the federated invariant:
// every live node targets a live observer, and the survivor's merged view
// covers the whole live membership (so bootstrap requests keep working).
func controlSteady(s *experiments.Session, survivor *observer.Observer, dead map[message.NodeID]bool) bool {
	if survivor == nil {
		return false
	}
	covered := make(map[message.NodeID]bool)
	for _, id := range survivor.Alive() {
		covered[id] = true
	}
	for i, up := range s.Alive {
		if up && (!covered[s.IDs[i]] || dead[s.Engine(i).Observer()]) {
			return false
		}
	}
	return true
}

// TestChaosSoakObserverFailover is the federation acceptance soak: a
// 16-node multicast session under a 3-observer federated tier. A
// node-kill round first calibrates the recovery baseline; then the tier
// is torn down observer by observer — starting with the one every node
// registered with — interleaved with node kills and restarts. Every node
// must fail over and re-register with a survivor, restarts must keep
// bootstrapping from the survivors' merged views while the tier is
// degraded, and recovery latency must stay within 2x of the node-kill
// baseline (the tier is redundant: losing an observer must not feel
// worse than losing a node).
func TestChaosSoakObserverFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	goroutinesBefore := runtime.NumGoroutine()

	// A full mesh of three federated observers, killed one by one while
	// the overlay churns underneath; every node starts out registered with
	// the first.
	const nodes = 16
	tier := make([]message.NodeID, 3)
	for k := range tier {
		tier[k] = message.MakeID(fmt.Sprintf("10.255.0.%d", k+1), 9000)
	}
	s := newSoak(t, nodes, tier...)
	dead := make(map[message.NodeID]bool) // observers killed so far
	// survivor is the first live observer — the one the invariant and the
	// post-round probes interrogate, and the one restarted nodes re-admit
	// through (observer 0, the session's own, is the first to die).
	survivor := func() *observer.Observer {
		for _, o := range s.Observers {
			if !dead[o.ID()] {
				return o
			}
		}
		return nil
	}
	ops := soakOps(s, survivor)
	ops.KillObserver = func(k int) {
		dead[tier[k]] = true
		s.Net.CrashNode(tier[k].Addr())
		s.Observers[k].Stop()
	}
	// For kill-observer events, recovery means actual re-registration,
	// not just rotation: every engine that was connected when the
	// observer died must complete a failover (counter advances past the
	// at-kill snapshot) before the event counts as recovered.
	var failSnap map[*engine.Engine]int64
	baseMark := ops.Mark
	ops.Mark = func(ev chaos.Event) {
		baseMark(ev)
		failSnap = nil
		if ev.Kind == chaos.KillObserver {
			failSnap = make(map[*engine.Engine]int64)
			for i, up := range s.Alive {
				if up {
					failSnap[s.Engine(i)] = s.Engine(i).Counters().Failovers
				}
			}
		}
	}
	ops.Recovered = func() bool {
		if !s.Steady() || !controlSteady(s, survivor(), dead) {
			return false
		}
		for e, n := range failSnap {
			if e.Counters().Failovers <= n {
				return false
			}
		}
		return true
	}
	r := &chaos.Runner{
		Ops:             ops,
		RecoveryTimeout: 30 * time.Second,
		Logf:            t.Logf,
	}

	// Baseline: plain node churn against the intact tier.
	baseline := []chaos.Event{
		{After: 150 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{3, 5}},
		{After: 150 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{3, 5}},
		{After: 150 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{7}},
		{After: 150 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{7}},
	}
	baseRep := r.Run(baseline)
	t.Logf("node-kill baseline:\n%s", baseRep.Render())
	if baseRep.Unrecovered != 0 {
		t.Fatalf("%d baseline events never recovered:\n%s", baseRep.Unrecovered, s.Stuck())
	}

	// The failover round: kill observer 0 (home of all 16 registrations),
	// churn nodes while the tier is degraded, then kill observer 1 so the
	// whole cluster lands on the last survivor.
	failover := []chaos.Event{
		{After: 150 * time.Millisecond, Kind: chaos.KillObserver, Nodes: []int{0}},
		{After: 150 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{4, 9}},
		{After: 150 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{4, 9}},
		{After: 150 * time.Millisecond, Kind: chaos.KillObserver, Nodes: []int{1}},
		{After: 150 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{6}},
		{After: 150 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{6}},
	}
	obsRep := r.Run(failover)
	t.Logf("observer-failover round:\n%s", obsRep.Render())
	if obsRep.Unrecovered != 0 {
		t.Fatalf("%d failover events never recovered:\n%s", obsRep.Unrecovered, s.Stuck())
	}

	// Observer-kill recovery must stay flat versus the node-kill
	// baseline: within 2x of the baseline's worst event, with a 2s floor
	// so a near-instant baseline does not demand the impossible of a
	// 16-node re-registration wave.
	var obsKillMax time.Duration
	for _, res := range obsRep.Results {
		if res.Event.Kind == chaos.KillObserver && res.Recovery > obsKillMax {
			obsKillMax = res.Recovery
		}
	}
	limit := 2 * baseRep.MaxRecovery
	if limit < 2*time.Second {
		limit = 2 * time.Second
	}
	if obsKillMax > limit {
		t.Errorf("observer-kill recovery %s exceeds %s (2x node-kill baseline max %s)",
			obsKillMax.Round(time.Millisecond), limit.Round(time.Millisecond),
			baseRep.MaxRecovery.Round(time.Millisecond))
	}

	// Every node must have landed on the last survivor, which serves the
	// full membership from its merged (now fully direct) view.
	surv := survivor()
	if surv == nil {
		t.Fatal("no surviving observer")
	}
	for i := range s.IDs {
		if got := s.Engine(i).Observer(); got != surv.ID() {
			t.Errorf("node %d targets %s, want survivor %s", i, got, surv.ID())
		}
	}
	if got := len(surv.Alive()); got != nodes {
		t.Errorf("survivor's merged view holds %d nodes, want %d", got, nodes)
	}

	// A brand-new node given the full (mostly dead) observer list must
	// still bootstrap: rotate to the survivor, register, and join the
	// session through it.
	probeAlg := &tree.Tree{Variant: tree.Random, App: experiments.SessionApp, LastMile: 1 << 20, AutoRejoin: true}
	probeID := message.MakeID("10.0.99.1", 7000)
	probe, err := engine.New(engine.Config{
		ID:             probeID,
		Transport:      engine.VNet{Net: s.Net},
		Algorithm:      probeAlg,
		Observers:      tier,
		StatusInterval: 50 * time.Millisecond,
		RetryBase:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("probe node: %v", err)
	}
	if err := probe.Start(); err != nil {
		t.Fatalf("probe start: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for !surv.Join(probeID, experiments.SessionApp, message.NodeID{}) {
		if time.Now().After(deadline) {
			t.Fatal("probe node never registered with the survivor")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for !probeAlg.InSession() || probeAlg.ReceivedBytes() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("probe node never joined the session through the survivor (inSession=%v recv=%d)",
				probeAlg.InSession(), probeAlg.ReceivedBytes())
		}
		time.Sleep(20 * time.Millisecond)
	}
	probe.Stop()

	s.Stop()
	awaitNoLeak(t, goroutinesBefore)
}
