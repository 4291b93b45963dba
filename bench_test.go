// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 2.4 and Section 3), plus micro-benchmarks of the
// engine's building blocks and ablations of its design choices. The
// figure benchmarks run a complete experiment per iteration and report
// the headline quantities via b.ReportMetric; cmd/ibench prints the full
// paper-style tables.
package ioverlay_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	ioverlay "repro"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/gf256"
	"repro/internal/tree"
)

// ----- §2.4, Fig. 5: raw engine performance -----

func BenchmarkFig5RawEngine(b *testing.B) {
	// The sub-benchmarks give the before/after curve of data-path batching:
	// "batched" is the default engine, "nobatch" forces BatchSize 1
	// (one lock acquisition and one wakeup per message — the pre-batching
	// engine).
	for _, variant := range []struct {
		name  string
		batch int
	}{{"batched", 0}, {"nobatch", 1}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig5(experiments.Fig5Config{
					Sizes:     []int{2, 3, 4, 8, 16, 32},
					Warmup:    200 * time.Millisecond,
					Window:    500 * time.Millisecond,
					BatchSize: variant.batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					b.ReportMetric(r.EndToEnd/(1024*1024), fmt.Sprintf("e2e-MBps/n=%d", r.Nodes))
				}
				if i == 0 {
					b.Log("\n" + experiments.RenderFig5(rows))
				}
			}
		})
	}
}

// BenchmarkSwitchOverhead isolates the cost of one user-level message
// switch: the paper compares two-node and three-node chains (3.3%
// overhead per switch).
func BenchmarkSwitchOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(experiments.Fig5Config{
			Sizes:  []int{2, 3},
			Warmup: 200 * time.Millisecond,
			Window: time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		// The paper compares TOTAL bandwidth of the 2- and 3-node chains
		// (48.4 vs 46.8 MBps → 3.3% per user-level switch).
		overhead := 100 * (1 - rows[1].Total/rows[0].Total)
		b.ReportMetric(overhead, "switch-overhead-%")
	}
}

// ----- Fig. 6 / Fig. 7: correctness and buffer regimes -----

func BenchmarkFig6Correctness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		phases, err := experiments.Fig6(experiments.Fig6Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(phases[1].Measured["DE"]/experiments.KB, "b-DE-KBps")
		b.ReportMetric(phases[1].Measured["AB"]/experiments.KB, "b-AB-KBps")
		if i == 0 {
			b.Log("\n" + experiments.RenderFig6("Fig 6 (small buffers)", phases))
		}
	}
}

func BenchmarkFig7LargeBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		phases, err := experiments.Fig7(experiments.Fig6Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(phases[0].Measured["AB"]/experiments.KB, "a-AB-KBps")
		b.ReportMetric(phases[1].Measured["EF"]/experiments.KB, "b-EF-KBps")
		if i == 0 {
			b.Log("\n" + experiments.RenderFig6("Fig 7 (large buffers)", phases))
		}
	}
}

// ----- Fig. 8: network coding -----

func BenchmarkFig8NetworkCoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.WithCoding {
			if r.Node == "F" {
				b.ReportMetric(r.Effective/experiments.KB, "coded-F-KBps")
			}
		}
		for _, r := range res.WithoutCoding {
			if r.Node == "F" {
				b.ReportMetric(r.Effective/experiments.KB, "plain-F-KBps")
			}
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig8(res))
		}
	}
}

// ----- Table 3 / Fig. 9: tree construction on the 5-node session -----

func BenchmarkTable3TreeStress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, figs, err := experiments.TreeSmall(experiments.TreeSmallConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Node == "S" {
				b.ReportMetric(r.Stress[tree.Unicast], "S-stress-unicast")
				b.ReportMetric(r.Stress[tree.StressAware], "S-stress-nsaware")
			}
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable3(rows))
			b.Log("\n" + experiments.RenderFig9(figs))
		}
	}
}

// ----- Fig. 11 / 12 / 13: wide-area trees -----

func BenchmarkFig11PlanetLabTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig11(experiments.Fig11Config{
			N:      20, // scaled from the paper's 81; cmd/ibench -full runs 81
			Seed:   7,
			Window: 2 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.Mean/experiments.KB, fmt.Sprintf("mean-KBps/%s", r.Variant))
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig11(results))
		}
	}
}

// ----- Fig. 14 / 15: service federation on 16 nodes -----

func BenchmarkFig15FederationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fed16(experiments.Fed16Config{})
		if err != nil {
			b.Fatal(err)
		}
		var aware, fed int64
		for _, r := range res.Rows {
			aware += r.AwareBytes
			fed += r.FederateBytes
		}
		b.ReportMetric(float64(aware), "sAware-bytes")
		b.ReportMetric(float64(fed), "sFederate-bytes")
		b.ReportMetric(res.LastHop, "last-hop-Bps")
		if i == 0 {
			b.Log("\n" + experiments.RenderFed16(res))
		}
	}
}

// ----- Fig. 16: sAware overhead over time -----

func BenchmarkFig16AwareOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig16(experiments.Fig16Config{
			N: 15, Minutes: 10, MinuteDur: 150 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		var peak int64
		for _, p := range points {
			if p.Bytes > peak {
				peak = p.Bytes
			}
		}
		b.ReportMetric(float64(peak), "peak-bytes-per-min")
		if i == 0 {
			b.Log("\n" + experiments.RenderFig16(points))
		}
	}
}

// ----- Fig. 17 / 18: control overhead vs size -----

func BenchmarkFig17OverheadVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FedSweep(experiments.FedSweepConfig{
			Sizes:        []int{5, 10, 15, 20},
			Requirements: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.AwareBytes), "sAware-bytes-at-20")
		b.ReportMetric(float64(last.FederateBytes), "sFederate-bytes-at-20")
		if i == 0 {
			b.Log("\n" + experiments.RenderFig17(rows))
		}
	}
}

func BenchmarkFig18PerNodeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FedSweep(experiments.FedSweepConfig{
			Sizes:        []int{15},
			Requirements: 25,
		})
		if err != nil {
			b.Fatal(err)
		}
		if n := rows[0].PerNode; len(n) > 0 {
			b.ReportMetric(float64(n[0].FederateBytes), "max-node-sFederate-bytes")
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig18(rows[0]))
		}
	}
}

// ----- Fig. 19: end-to-end bandwidth across policies -----

func BenchmarkFig19FederatedBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		byPolicy := make(map[federation.Selection][]experiments.Fig17Row)
		for _, p := range []federation.Selection{federation.SFlow, federation.Fixed, federation.RandomSel} {
			rows, err := experiments.FedSweep(experiments.FedSweepConfig{
				Sizes:        []int{5, 10, 15},
				Requirements: 15,
				Policy:       p,
			})
			if err != nil {
				b.Fatal(err)
			}
			byPolicy[p] = rows
			b.ReportMetric(rows[len(rows)-1].MeanBandwidth, fmt.Sprintf("e2e-Bps/%s", p))
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig19(byPolicy))
		}
	}
}

// ----- §2.4 footprint: per-connection memory -----

func BenchmarkEngineFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := ioverlay.NewVirtualNetwork()
		sink := &counter{}
		e1, err := ioverlay.NewEngine(ioverlay.Config{
			ID: ioverlay.MustParseID("10.9.0.1:7000"), Transport: ioverlay.VirtualTransport(net),
			Algorithm: sink, RecvBuf: 10, SendBuf: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := e1.Start(); err != nil {
			b.Fatal(err)
		}
		src := &counter{next: ioverlay.MustParseID("10.9.0.1:7000")}
		e2, err := ioverlay.NewEngine(ioverlay.Config{
			ID: ioverlay.MustParseID("10.9.0.2:7000"), Transport: ioverlay.VirtualTransport(net),
			Algorithm: src, RecvBuf: 10, SendBuf: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := e2.Start(); err != nil {
			b.Fatal(err)
		}
		e2.StartSource(1, 100<<10, 5<<10)
		time.Sleep(100 * time.Millisecond)
		e2.Stop()
		e1.Stop()
		net.Close()
	}
	// -benchmem reports the allocation footprint per engine pair.
}

// ----- micro-benchmarks of the substrates -----

func BenchmarkGF256Axpy(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gf256.Axpy(dst, 7, src)
	}
}

func BenchmarkGF256Solve(b *testing.B) {
	const k = 4
	src := make([][]byte, k)
	coeffs := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, 1024)
		coeffs[i] = make([]byte, k)
		for j := range coeffs[i] {
			coeffs[i][j] = gf256.Exp(i*7 + j*3)
		}
		coeffs[i][i] = 1
	}
	coded := make([][]byte, k)
	for i := range coded {
		coded[i] = gf256.Combine(coeffs[i], src)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := gf256.Solve(coeffs, coded); !ok {
			b.Fatal("singular")
		}
	}
}

// ----- ablations of the design choices DESIGN.md calls out -----

// cloningForwarder deep-copies every message before forwarding — the
// design iOverlay explicitly avoids with zero-copy reference passing.
type cloningForwarder struct {
	ioverlay.Base
	next     ioverlay.NodeID
	received atomic.Int64
}

func (c *cloningForwarder) Process(m *ioverlay.Msg) ioverlay.Verdict {
	if !m.IsData() {
		return c.Base.Process(m)
	}
	c.received.Add(int64(m.Len()))
	if !c.next.IsZero() {
		cl := m.Clone()
		c.API.SendNew(cl, c.next)
	}
	return ioverlay.Done
}

// BenchmarkAblationZeroCopy compares chain throughput with reference
// forwarding (the paper's design) against deep-copy-per-hop forwarding.
func BenchmarkAblationZeroCopy(b *testing.B) {
	run := func(clone bool) float64 {
		net := ioverlay.NewVirtualNetwork()
		defer net.Close()
		const hops = 4
		var engines []*ioverlay.Engine
		var tail interface{ bytes() int64 }
		for i := hops - 1; i >= 0; i-- {
			id := ioverlay.MustParseID(fmt.Sprintf("10.8.0.%d:7000", i+1))
			var next ioverlay.NodeID
			if i < hops-1 {
				next = ioverlay.MustParseID(fmt.Sprintf("10.8.0.%d:7000", i+2))
			}
			var alg ioverlay.Algorithm
			if clone {
				a := &cloningForwarder{next: next}
				alg = a
				if i == hops-1 {
					tail = fnBytes(func() int64 { return a.received.Load() })
				}
			} else {
				a := &counter{next: next}
				alg = a
				if i == hops-1 {
					tail = fnBytes(func() int64 { return a.received.Load() })
				}
			}
			e, err := ioverlay.NewEngine(ioverlay.Config{
				ID: id, Transport: ioverlay.VirtualTransport(net), Algorithm: alg,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Start(); err != nil {
				b.Fatal(err)
			}
			engines = append(engines, e)
		}
		defer func() {
			for _, e := range engines {
				e.Stop()
			}
		}()
		engines[len(engines)-1].StartSource(1, 0, 5<<10)
		time.Sleep(200 * time.Millisecond)
		before := tail.bytes()
		time.Sleep(500 * time.Millisecond)
		return float64(tail.bytes()-before) / 0.5
	}
	for i := 0; i < b.N; i++ {
		zero := run(false)
		deep := run(true)
		b.ReportMetric(zero/(1024*1024), "zerocopy-MBps")
		b.ReportMetric(deep/(1024*1024), "deepcopy-MBps")
	}
}

type fnBytes func() int64

func (f fnBytes) bytes() int64 { return f() }

// BenchmarkAblationWRRWeights shows the dynamically tunable switch
// weights: two competing upstreams into one bottleneck forwarder, fair
// (1:1) vs weighted (4:1) service.
func BenchmarkAblationWRRWeights(b *testing.B) {
	run := func(weightA int) (shareA float64) {
		net := ioverlay.NewVirtualNetwork()
		defer net.Close()
		sinkID := ioverlay.MustParseID("10.7.0.9:7000")
		midID := ioverlay.MustParseID("10.7.0.3:7000")
		aID := ioverlay.MustParseID("10.7.0.1:7000")
		bID := ioverlay.MustParseID("10.7.0.2:7000")

		sink := &counter{}
		mid := &counter{next: sinkID}
		boot := func(id ioverlay.NodeID, alg ioverlay.Algorithm, mut func(*ioverlay.Config)) *ioverlay.Engine {
			cfg := ioverlay.Config{ID: id, Transport: ioverlay.VirtualTransport(net), Algorithm: alg}
			if mut != nil {
				mut(&cfg)
			}
			e, err := ioverlay.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Start(); err != nil {
				b.Fatal(err)
			}
			return e
		}
		sinkEng := boot(sinkID, sink, nil)
		defer sinkEng.Stop()
		midEng := boot(midID, mid, func(c *ioverlay.Config) {
			c.UpBW = 200 << 10 // the bottleneck the upstreams compete for
			c.RecvBuf, c.SendBuf = 5, 5
			c.MaxParked = 4
		})
		defer midEng.Stop()
		srcA := &counter{next: midID}
		srcB := &counter{next: midID}
		aEng := boot(aID, srcA, nil)
		defer aEng.Stop()
		bEng := boot(bID, srcB, nil)
		defer bEng.Stop()
		aEng.StartSource(1, 0, 1<<10)
		bEng.StartSource(2, 0, 1<<10)

		time.Sleep(300 * time.Millisecond)
		midEng.Do(func(api ioverlay.API) { api.SetReceiverWeight(aID, weightA) })
		time.Sleep(300 * time.Millisecond)
		beforeA := sink.received.Load()
		// Isolate app 1's share via the mid node's per-link meters.
		a0 := midEng.LinkRate(aID, false)
		time.Sleep(700 * time.Millisecond)
		a1 := midEng.LinkRate(aID, false)
		bRate := midEng.LinkRate(bID, false)
		_ = beforeA
		aRate := (a0 + a1) / 2
		if aRate+bRate == 0 {
			return 0
		}
		return aRate / (aRate + bRate)
	}
	for i := 0; i < b.N; i++ {
		fair := run(1)
		weighted := run(4)
		b.ReportMetric(fair, "shareA-weight1")
		b.ReportMetric(weighted, "shareA-weight4")
		if weighted <= fair {
			b.Logf("warning: weighted share %.2f not above fair %.2f", weighted, fair)
		}
	}
}
