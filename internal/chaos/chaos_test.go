package chaos_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/message"
	"repro/internal/observer"
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

// newSoak boots the live multicast session the chaos runner torments: one
// source (node 0) streaming to n-1 receivers over a self-organizing
// dissemination tree, with the observer tier as an out-of-band control
// plane (unlisted in partitions, so faults never take the testbed itself
// down). More than one observer address makes the tier federated: every
// engine carries the whole list in failover order.
func newSoak(t *testing.T, n int, observers ...message.NodeID) *experiments.Session {
	t.Helper()
	s, err := experiments.NewSession(experiments.SessionConfig{
		N:         n,
		NetOpts:   []vnet.Option{vnet.WithSeed(42)},
		Observers: observers,
	})
	if err != nil {
		t.Fatalf("soak session: %v", err)
	}
	return s
}

// soakOps adds the faults only the soaks inject to the session's own. A
// restarted node re-admits through whichever observer via returns.
func soakOps(s *experiments.Session, via func() *observer.Observer) chaos.Ops {
	ops := s.Ops()
	ops.Restart = func(n int) error {
		if err := s.StartNode(n); err != nil {
			return err
		}
		// The fresh engine re-registers with the observer; issue the
		// join once its control route is back.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if o := via(); o != nil && o.Join(s.IDs[n], experiments.SessionApp, message.NodeID{}) {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d never re-registered", n)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	ops.Partition = func(groups [][]int) {
		addrGroups := make([][]string, len(groups))
		for gi, g := range groups {
			srcSide := false
			for _, n := range g {
				addrGroups[gi] = append(addrGroups[gi], s.IDs[n].Addr())
				if n == 0 {
					srcSide = true
				}
			}
			for _, n := range g {
				s.Reachable[n] = srcSide
			}
		}
		s.Net.Partition(addrGroups...)
	}
	ops.Heal = func() {
		s.Net.Heal()
		for i := range s.Reachable {
			s.Reachable[i] = true
		}
	}
	ops.Flaky = func(a, b int, dropProb float64, stall time.Duration) {
		s.Net.Flaky(s.IDs[a].Addr(), s.IDs[b].Addr(), dropProb, stall)
	}
	return ops
}

// awaitNoLeak fails the test unless every engine, observer and vnet
// goroutine winds down after the session has stopped.
func awaitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
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

	s := newSoak(t, 16)

	schedule := chaos.Generate(chaos.ScheduleConfig{
		Seed:    7,
		Nodes:   16,
		Rounds:  6,
		MaxKill: 2,
		Gap:     150 * time.Millisecond,
	})
	r := &chaos.Runner{
		Ops:             soakOps(s, func() *observer.Observer { return s.Obs }),
		RecoveryTimeout: 30 * time.Second,
		Logf:            t.Logf,
	}
	rep := r.Run(schedule)
	t.Logf("\n%s", rep.Render())
	if rep.Unrecovered != 0 {
		t.Errorf("%d events never recovered:\n%s", rep.Unrecovered, s.Stuck())
	}

	// One saturated round: throttle every receiver's uplink to half the
	// session's 256 KiB/s stream so interior forwarding queues stay full,
	// then kill two high-fanout nodes mid-overload. Control traffic rides
	// the priority lane, so the repair (failure detection, rejoin,
	// re-adoption) must still complete instead of waiting behind the
	// queued data.
	receivers := make([]int, 0, 15)
	for i := 1; i < 16; i++ {
		receivers = append(receivers, i)
	}
	saturated := []chaos.Event{
		{Kind: chaos.Saturate, Nodes: receivers, Rate: 128 << 10},
		{After: 500 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{1, 2}},
		{After: 150 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{1, 2}},
		{After: 150 * time.Millisecond, Kind: chaos.Saturate, Nodes: receivers, Rate: 0},
	}
	satRep := r.Run(saturated)
	t.Logf("saturated round:\n%s", satRep.Render())
	if satRep.Unrecovered != 0 {
		t.Errorf("%d saturated events never recovered:\n%s",
			satRep.Unrecovered, s.Stuck())
	}

	// The schedule undoes every fault, so the full session must be intact.
	s.Mark()
	if err := s.AwaitSteady(10 * time.Second); err != nil {
		t.Fatalf("cluster degraded after churn: %v", err)
	}

	s.Stop()
	awaitNoLeak(t, goroutinesBefore)
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
	s := newSoak(t, nodes)
	defer s.Stop()

	schedule := []chaos.Event{
		{After: 100 * time.Millisecond, Kind: chaos.DialStorm,
			Nodes: []int{0, 1, 2}, Rate: 300, Duration: time.Second},
		{After: 100 * time.Millisecond, Kind: chaos.Kill, Nodes: []int{3}},
		{After: 100 * time.Millisecond, Kind: chaos.DialStorm,
			Nodes: []int{0, 1}, Rate: 300, Duration: 500 * time.Millisecond},
		{After: 100 * time.Millisecond, Kind: chaos.Restart, Nodes: []int{3}},
	}
	r := &chaos.Runner{
		Ops:             soakOps(s, func() *observer.Observer { return s.Obs }),
		RecoveryTimeout: 30 * time.Second,
		Logf:            t.Logf,
	}
	rep := r.Run(schedule)
	t.Logf("\n%s", rep.Render())
	if rep.Unrecovered != 0 {
		t.Errorf("%d events never recovered:\n%s", rep.Unrecovered, s.Stuck())
	}

	// The gate engaged rather than absorbed: in-flight handshakes never
	// exceeded the cap on any stormed node, and refusals were issued.
	var shed int64
	for _, i := range []int{0, 1, 2} {
		st := s.Engine(i).Admission()
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
	s.Mark()
	if err := s.AwaitSteady(10 * time.Second); err != nil {
		t.Fatalf("cluster degraded after the storm: %v", err)
	}
}
