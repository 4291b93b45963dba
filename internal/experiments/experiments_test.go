package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/tree"
)

// within checks got is in [want*(1-tol), want*(1+tol)].
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.1f, want %.1f (±%.0f%%)", name, got, want, tol*100)
	}
}

func TestFig5ShapesHold(t *testing.T) {
	rows, err := Fig5(Fig5Config{
		Sizes:  []int{2, 4, 32},
		Warmup: 300 * time.Millisecond,
		Window: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EndToEnd <= 0 {
			t.Errorf("chain %d: zero throughput", r.Nodes)
		}
		wantTotal := r.EndToEnd * float64(r.Nodes-1)
		if r.Total != wantTotal {
			t.Errorf("chain %d: total %f != e2e*links %f", r.Nodes, r.Total, wantTotal)
		}
	}
	// End-to-end throughput declines as goroutine scheduling overhead
	// accumulates over long chains (the paper's Fig. 5 shape). Short
	// chains pipeline, so compare against a clearly long one.
	if rows[2].EndToEnd > rows[0].EndToEnd*0.95 {
		t.Errorf("e2e did not decline for long chains: %v", rows)
	}
	if !strings.Contains(RenderFig5(rows), "nodes") {
		t.Error("RenderFig5 empty")
	}
}

func TestFig6BackPressureCorrectness(t *testing.T) {
	phases, err := Fig6(Fig6Config{
		Settle: 2 * time.Second,
		Window: 1200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 4 {
		t.Fatalf("phases = %d", len(phases))
	}
	a, b, c, d := phases[0], phases[1], phases[2], phases[3]

	// (a) A's 400 KBps splits: single-copy edges at ~200, double at ~400.
	within(t, "(a) AB", a.Measured["AB"]/KB, 200, 0.4)
	within(t, "(a) CD", a.Measured["CD"]/KB, 200, 0.4)
	within(t, "(a) DE", a.Measured["DE"]/KB, 400, 0.4)
	within(t, "(a) predicted AB", a.Predicted["AB"]/KB, 200, 0.01)
	within(t, "(a) predicted DE", a.Predicted["DE"]/KB, 400, 0.01)

	// (b) D's 30 KBps uplink back-pressures the whole tree.
	within(t, "(b) AB", b.Measured["AB"]/KB, 15, 0.6)
	within(t, "(b) DE", b.Measured["DE"]/KB, 30, 0.5)
	within(t, "(b) EF", b.Measured["EF"]/KB, 30, 0.5)
	within(t, "(b) predicted AB", b.Predicted["AB"]/KB, 15, 0.01)

	// (c) B terminated: AB/BD/BF closed, CD converges to 30.
	for _, e := range []string{"AB", "BD", "BF"} {
		found := false
		for _, cl := range c.Closed {
			if cl == e {
				found = true
			}
		}
		if !found {
			t.Errorf("(c) edge %s not closed: %v", e, c.Closed)
		}
	}
	within(t, "(c) CD", c.Measured["CD"]/KB, 30, 0.5)

	// (d) G terminated: F still served at ~30 via C, D, E.
	within(t, "(d) EF", d.Measured["EF"]/KB, 30, 0.5)
	if s := RenderFig6("Fig 6", phases); !strings.Contains(s, "closed") {
		t.Error("RenderFig6 lacks closed markers")
	}
}

func TestFig7LargeBuffersLocalize(t *testing.T) {
	phases, err := Fig7(Fig6Config{
		Settle: 2 * time.Second,
		Window: 1200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	a, b := phases[0], phases[1]
	// (a) the bottleneck stays local: upstream at 200, downstream at 30.
	within(t, "(a) AB", a.Measured["AB"]/KB, 200, 0.4)
	within(t, "(a) BD", a.Measured["BD"]/KB, 200, 0.4)
	within(t, "(a) DE", a.Measured["DE"]/KB, 30, 0.5)
	within(t, "(a) EF", a.Measured["EF"]/KB, 30, 0.5)
	// (b) EF capped to 15 without affecting EG.
	within(t, "(b) EF", b.Measured["EF"]/KB, 15, 0.5)
	within(t, "(b) EG", b.Measured["EG"]/KB, 30, 0.5)
	within(t, "(b) AB", b.Measured["AB"]/KB, 200, 0.4)
}

func TestFig8CodingLiftsReceivers(t *testing.T) {
	res, err := Fig8(Fig8Config{
		Settle: 1500 * time.Millisecond,
		Window: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(rows []Fig8Row, node string) float64 {
		for _, r := range rows {
			if r.Node == node {
				return r.Effective / KB
			}
		}
		t.Fatalf("node %s missing", node)
		return 0
	}
	// Panel (a): D at 400, F and G at 300, E at 200.
	within(t, "(a) D", get(res.WithoutCoding, "D"), 400, 0.4)
	within(t, "(a) F", get(res.WithoutCoding, "F"), 300, 0.4)
	within(t, "(a) G", get(res.WithoutCoding, "G"), 300, 0.4)
	// Panel (b): coding lifts F and G to ~400.
	within(t, "(b) D", get(res.WithCoding, "D"), 400, 0.4)
	within(t, "(b) F", get(res.WithCoding, "F"), 400, 0.4)
	within(t, "(b) G", get(res.WithCoding, "G"), 400, 0.4)
	// The qualitative claim: coding strictly improves F and G.
	if get(res.WithCoding, "F") <= get(res.WithoutCoding, "F") {
		t.Error("coding did not improve F")
	}
	if !strings.Contains(RenderFig8(res), "with coding") {
		t.Error("RenderFig8 empty")
	}
}

func TestTreeSmallTable3(t *testing.T) {
	rows, figs, err := TreeSmall(TreeSmallConfig{
		JoinWait: 400 * time.Millisecond,
		Window:   1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Table3Row)
	for _, r := range rows {
		byName[r.Node] = r
	}
	// Unicast: a star around S.
	if d := byName["S"].Degree[tree.Unicast]; d != 4 {
		t.Errorf("unicast S degree = %d, want 4", d)
	}
	for _, n := range []string{"A", "B", "C", "D"} {
		if d := byName[n].Degree[tree.Unicast]; d != 1 {
			t.Errorf("unicast %s degree = %d, want 1", n, d)
		}
	}
	within(t, "unicast S stress", byName["S"].Stress[tree.Unicast], 2.0, 0.01)
	// ns-aware: the Table 3 outcome S=2, A=3, B=C=D=1.
	if d := byName["S"].Degree[tree.StressAware]; d != 2 {
		t.Errorf("ns-aware S degree = %d, want 2", d)
	}
	if d := byName["A"].Degree[tree.StressAware]; d != 3 {
		t.Errorf("ns-aware A degree = %d, want 3", d)
	}
	within(t, "ns-aware A stress", byName["A"].Stress[tree.StressAware], 0.6, 0.01)
	// Degrees always sum to 2 × edges = 8 in any spanning tree of 5 nodes.
	for _, v := range []tree.Variant{tree.Unicast, tree.Random, tree.StressAware} {
		sum := 0
		for _, n := range treeSmallNames {
			sum += byName[n].Degree[v]
		}
		if sum != 8 {
			t.Errorf("%s degree sum = %d, want 8", v, sum)
		}
	}
	// Fig 9: ns-aware receivers all near 100 KBps; unicast near 50.
	for _, f := range figs {
		if len(f.Edges) != 4 {
			t.Errorf("%s tree has %d edges, want 4", f.Variant, len(f.Edges))
		}
		switch f.Variant {
		case tree.Unicast:
			within(t, "unicast D throughput", f.Throughput["D"]/KB, 50, 0.5)
		case tree.StressAware:
			within(t, "ns-aware D throughput", f.Throughput["D"]/KB, 100, 0.5)
			within(t, "ns-aware B throughput", f.Throughput["B"]/KB, 100, 0.5)
		}
	}
	if !strings.Contains(RenderTable3(rows), "ns-aware") {
		t.Error("RenderTable3 empty")
	}
	if !strings.Contains(RenderFig9(figs), "throughput") {
		t.Error("RenderFig9 empty")
	}
}

func TestFig11SmallScale(t *testing.T) {
	results, err := Fig11(Fig11Config{
		N:       10,
		Seed:    3,
		JoinGap: 30 * time.Millisecond,
		Window:  1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("variants = %d", len(results))
	}
	byVariant := make(map[tree.Variant]Fig11Variant)
	for _, r := range results {
		byVariant[r.Variant] = r
		if r.Joined != 9 {
			t.Errorf("%s: joined %d, want 9", r.Variant, r.Joined)
		}
		if len(r.Edges) != 9 {
			t.Errorf("%s: %d edges, want 9", r.Variant, len(r.Edges))
		}
		if r.Mean <= 0 {
			t.Errorf("%s: zero mean throughput", r.Variant)
		}
	}
	// The unicast star concentrates stress on the source far beyond the
	// ns-aware tree's maximum.
	uniMax := maxOf(byVariant[tree.Unicast].Stresses)
	nsMax := maxOf(byVariant[tree.StressAware].Stresses)
	if nsMax >= uniMax {
		t.Errorf("ns-aware max stress %.2f not below unicast %.2f", nsMax, uniMax)
	}
	// ns-aware should beat unicast on delivered throughput.
	if byVariant[tree.StressAware].Mean <= byVariant[tree.Unicast].Mean {
		t.Errorf("ns-aware mean %.0f not above unicast %.0f",
			byVariant[tree.StressAware].Mean, byVariant[tree.Unicast].Mean)
	}
	cdf := StressCDF(byVariant[tree.StressAware].Stresses)
	if len(cdf) == 0 || cdf[len(cdf)-1][1] != 1.0 {
		t.Error("StressCDF malformed")
	}
	if !strings.Contains(RenderFig11(results), "ns-aware") {
		t.Error("RenderFig11 empty")
	}
	if !strings.Contains(RenderTopology(byVariant[tree.StressAware]), "->") {
		t.Error("RenderTopology empty")
	}
}

func TestFed16SessionAndOverhead(t *testing.T) {
	res, err := Fed16(Fed16Config{N: 12, Window: 1200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 5 {
		t.Fatalf("assignment = %v", res.Assignment)
	}
	for i, n := range res.Assignment {
		if n.IsZero() {
			t.Errorf("vertex %d unassigned", i)
		}
	}
	if res.LastHop <= 0 {
		t.Error("no data reached the sink")
	}
	var totalAware, totalFederate int64
	for _, r := range res.Rows {
		totalAware += r.AwareBytes
		totalFederate += r.FederateBytes
	}
	if totalAware == 0 || totalFederate == 0 {
		t.Errorf("overhead totals aware=%d federate=%d", totalAware, totalFederate)
	}
	// The paper's observation: sFederate overhead is small relative to
	// sAware.
	if totalFederate >= totalAware {
		t.Errorf("sFederate (%d) not below sAware (%d)", totalFederate, totalAware)
	}
	if !strings.Contains(RenderFed16(res), "Fig 14") {
		t.Error("RenderFed16 empty")
	}
}

func TestFig16OverheadDecaysAfterArrivalsStop(t *testing.T) {
	points, err := Fig16(Fig16Config{
		N:         9,
		Minutes:   6,
		MinuteDur: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	var during, after int64
	for _, p := range points {
		if p.Minute <= 3 {
			during += p.Bytes
		} else {
			after += p.Bytes
		}
	}
	if during == 0 {
		t.Error("no sAware traffic while services joined")
	}
	if after >= during {
		t.Errorf("overhead did not decay: during=%d after=%d", during, after)
	}
	if !strings.Contains(RenderFig16(points), "minute") {
		t.Error("RenderFig16 empty")
	}
}

func TestFedSweepGrowsWithSize(t *testing.T) {
	rows, err := FedSweep(FedSweepConfig{
		Sizes:        []int{5, 10},
		Requirements: 8,
		Policy:       federation.SFlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Completed == 0 {
			t.Errorf("size %d: no sessions completed", r.Size)
		}
		if r.AwareBytes == 0 || r.FederateBytes == 0 {
			t.Errorf("size %d: overhead zero", r.Size)
		}
		if r.MeanBandwidth <= 0 {
			t.Errorf("size %d: zero bandwidth estimate", r.Size)
		}
		if len(r.PerNode) != r.Size {
			t.Errorf("size %d: per-node rows = %d", r.Size, len(r.PerNode))
		}
	}
	if rows[1].AwareBytes <= rows[0].AwareBytes {
		t.Errorf("sAware overhead did not grow with size: %d -> %d",
			rows[0].AwareBytes, rows[1].AwareBytes)
	}
	if !strings.Contains(RenderFig17(rows), "size") {
		t.Error("RenderFig17 empty")
	}
	if !strings.Contains(RenderFig18(rows[1]), "sFederate") {
		t.Error("RenderFig18 empty")
	}
	byPolicy := map[federation.Selection][]Fig17Row{
		federation.SFlow:     rows,
		federation.Fixed:     rows,
		federation.RandomSel: rows,
	}
	if !strings.Contains(RenderFig19(byPolicy), "sFlow") {
		t.Error("RenderFig19 empty")
	}
}
