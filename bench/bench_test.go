package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/vnet"
)

// smokePlan is one short window with verification on.
func smokePlan(traced bool) plan {
	return plan{seed: 1, window: 200 * time.Millisecond, windows: 1, warmup: 100 * time.Millisecond, setups: 1, traced: traced}
}

// TestWorkloadsSmoke runs every workload for one 200 ms window and checks
// that it verifies and emits exactly the end-to-end catalogue, all non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			r, err := runWorkload(s, smokePlan(false))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("incorrect: %v", r.Problems)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("attempted %d failed %d", r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, catalogue has %d", len(r.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				st, ok := r.Metrics[m.Name]
				if !ok || st.Unit != m.Unit || !(st.Median > 0) {
					t.Errorf("%s: emitted %+v, want a positive value in %s", m.Name, st, m.Unit)
				}
			}
			if r.Shards < 1 {
				t.Errorf("engine default shards read back as %d", r.Shards)
			}
		})
	}
}

// TestTracedRun runs the datagram chain and a stream chain behind the
// wrappers: the traced run must verify like the untraced one, see traffic
// at both seams, and emit exactly the per-layer catalogue; the stream
// chain adds its back-to-back reading.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"chain8_dgram", "chain16_small"} {
		t.Run(name, func(t *testing.T) {
			s, _ := findSpec(name)
			r, err := runWorkload(s, smokePlan(true))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("incorrect: %v", r.Problems)
			}
			if len(r.Metrics) != len(perLayer)+1 { // + setup_s, measured on every run
				t.Errorf("emitted %d metrics, catalogue has %d", len(r.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if st, ok := r.Metrics[m.Name]; !ok || st.Unit != m.Unit {
					t.Errorf("%s: emitted %+v, want unit %s", m.Name, st, m.Unit)
				}
			}
			want := []string{"multicast.process_ns", "engine.hop_transit_p50_us",
				"engine.write_calls_per_msg", "engine.read_calls_per_msg", "engine.bytes_per_read",
				"engine.write_ns_per_msg", "engine.switch_batch_p50", "bench.heap_peak_MB", "delivered_frac"}
			if s.hasPeak() {
				want = append(want, "peak_goodput_MBps", "peak_hops_per_s", "peak_cpu_us_per_hop")
			}
			for _, name := range want {
				if !(r.Metrics[name].Median > 0) {
					t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Median)
				}
			}
			if _, err := os.Stat(traceFilePath(s.name)); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestWrappersForwardFastPaths pins what keeps the traced run on the
// untraced code paths: the wrapped connection and packet endpoint satisfy
// the interfaces the engine type-asserts for, and the calls reach the
// virtual network.
func TestWrappersForwardFastPaths(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	nt := &nodeTrace{}
	tp := &tracedTransport{inner: engine.VNet{Net: n}, nt: nt}

	l, err := tp.Listen("10.9.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := tp.DialFrom("10.9.0.1:7000", "10.9.0.2:7000", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]any{"dialed": dialed, "accepted": accepted} {
		bw, ok := c.(interface {
			WriteBuffers([][]byte) (int64, error)
		})
		if !ok {
			t.Fatalf("%s traced conn does not implement WriteBuffers", name)
		}
		if name == "dialed" {
			if k, err := bw.WriteBuffers([][]byte{[]byte("ab"), []byte("cde")}); k != 5 || err != nil {
				t.Errorf("WriteBuffers = %d, %v", k, err)
			}
		}
	}
	buf := make([]byte, 8)
	if k, err := accepted.Read(buf); k != 5 || err != nil {
		t.Errorf("Read = %d, %v", k, err)
	}
	if nt.writeCalls.Load() != 1 || nt.readCalls.Load() != 1 || nt.readBytes.Load() != 5 {
		t.Errorf("counted %d writes, %d reads/%d B", nt.writeCalls.Load(), nt.readCalls.Load(), nt.readBytes.Load())
	}

	a, err := tp.ListenPacket("10.9.0.1:7000")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tp.ListenPacket("10.9.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	pw, ok := a.(interface {
		WriteToBatch([][]byte, net.Addr) (int, error)
	})
	if !ok {
		t.Fatal("traced packet conn does not forward WriteToBatch")
	}
	pr, ok := b.(interface{ TryReadDgrams([]vnet.Dgram) int })
	if !ok {
		t.Fatal("traced packet conn does not forward TryReadDgrams")
	}
	to, _ := tp.PacketAddr("10.9.0.2:7000")
	if k, err := pw.WriteToBatch([][]byte{[]byte("x"), []byte("yz")}, to); k != 2 || err != nil {
		t.Fatalf("WriteToBatch = %d, %v", k, err)
	}
	dst := make([]vnet.Dgram, 4)
	got := 0
	for deadline := time.Now().Add(time.Second); got < 2 && time.Now().Before(deadline); {
		k := pr.TryReadDgrams(dst)
		for _, d := range dst[:k] {
			d.Release()
		}
		got += k
	}
	if got != 2 || nt.writeCalls.Load() != 2 || nt.readBytes.Load() != 8 {
		t.Errorf("read %d packets; counted %d writes, %d B read in all", got, nt.writeCalls.Load(), nt.readBytes.Load())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's
// catalogue in step: same workloads, same metrics, same units and
// directions, well-formed names, bounds within the contract.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	if full.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", full.RunSeconds, defaultSeconds)
	}
	if len(full.Paths) != 1 || full.Paths[0] != "bench" {
		t.Errorf("paths = %v", full.Paths)
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, file []boundedMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		seen := map[string]bool{}
		for i, m := range file {
			p := prog[i]
			if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, p)
			}
			if !nameRE.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if bounded && !(m.Bound > 0 && m.Bound <= 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	for _, d := range microDefs {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == d.name
		}
		if !found {
			t.Errorf("micro row %s is not in the per-layer catalogue", d.name)
		}
	}
}

// TestQuantileMatchesDriver checks the quartiles against the values
// Python's statistics.quantiles(range(1, 11), n=4) gives.
func TestQuantileMatchesDriver(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestCompareVerdicts feeds -compare two synthetic run records: equal
// runs agree, a run whose throughput fell past the bound is worse.
func TestCompareVerdicts(t *testing.T) {
	mk := func(scale float64) string {
		rec := runRecord{Untraced: map[string]*result{}}
		for _, s := range specs {
			r := &result{Metrics: map[string]stat{}}
			for _, m := range endToEnd {
				v := 100.0
				if m.Better == "higher" {
					v *= scale
				}
				r.Metrics[m.Name] = summarise(m.Unit, []float64{v, v, v})
			}
			rec.Untraced[s.name] = r
		}
		path := filepath.Join(t.TempDir(), "run.json")
		if err := writeJSON(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same, slower := mk(1), mk(0.5)
	if code := compareRuns(same, same); code != 0 {
		t.Errorf("identical runs: exit %d", code)
	}
	if code := compareRuns(same, slower); code != 1 {
		t.Errorf("halved throughput: exit %d, want 1", code)
	}
}
