// Benchmarks of the paper's §2.4 engine measurements — raw chain
// throughput (with its BatchSize 1 ablation), the per-switch overhead and
// the engine footprint — and the ablations of the design choices DESIGN.md
// calls out, each reporting its headline quantities via b.ReportMetric.
// cmd/ibench regenerates every table and figure of the paper; bench/
// measures the engine layer by layer.
package ioverlay_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	ioverlay "repro"
	"repro/internal/experiments"
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
