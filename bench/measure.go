package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/engine"
	mx "repro/internal/metrics"
)

// plan is how long one run of one workload measures.
type plan struct {
	seed    int64
	window  time.Duration // one timed window
	windows int           // timed windows; a metric is the median over them
	warmup  time.Duration
	setups  int // clusters built and timed for setup_s; the last one is measured
	traced  bool
	micro   bool // traced runs only: also time the per-layer micro rows
}

// planFor sizes a run from the driver's --seconds: 2 s windows (single
// windows swing by some 10 %, the median of eight or more repeats within a
// few per cent), a 2 s warm-up, nine set-ups. A traced run splits its
// seconds between an untraced reference (the base of
// bench.trace_overhead_frac) and the traced windows.
func planFor(seed int64, seconds int, traced bool) plan {
	p := plan{seed: seed, window: 2 * time.Second, warmup: 2 * time.Second, setups: 9, traced: traced, micro: traced}
	if time.Duration(seconds)*time.Second < p.window {
		p.window = time.Duration(seconds) * time.Second
	}
	p.windows = int(time.Duration(seconds) * time.Second / p.window)
	if traced {
		p.windows = max(1, p.windows/2)
		p.warmup = time.Second
		p.setups = 1
	}
	return p
}

// stat summarises one metric over the windows (or set-ups) of a run.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"` // raw per-window values, in time order
}

// quantile is the exclusive-method quantile Python's statistics.quantiles
// uses (the driver computes quartile spreads with it), on sorted input.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	if lo < 0 {
		return sorted[0]
	}
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarise(unit string, values []float64) stat {
	s := stat{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.75)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	return s
}

func single(unit string, v float64) stat { return summarise(unit, []float64{v}) }

// percentile is the nearest-rank percentile of sorted latency samples.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs reads the cumulative heap allocation count without stopping the
// world (runtime.ReadMemStats would pause every engine once per window).
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]stat    `json:"metrics"`
	Extra     map[string]float64 `json:"extra,omitempty"` // allocs/op of the micro rows and other context
	Attempted int64              `json:"attempted_ops"`
	Failed    int64              `json:"failed_ops"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Shards    int                `json:"engine_default_shards"` // read back from Snapshot().Shards
	PhaseS    map[string]float64 `json:"phase_wall_s"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// windowStats are the per-window readings of one timed phase.
type windowStats struct {
	goodput, hopsPerS, cpuPerHop, allocsPerHop []float64
	latP50, latP90                             []float64
	lat                                        []uint32 // every latency sample of the phase, sorted
	latLost                                    int64    // samples the sinks had no room for during the phase
	hops, cycles                               int64
	cpu                                        time.Duration
	wall                                       time.Duration
}

// timedPhase measures p.windows back-to-back windows on a warmed-up
// cluster. The measuring goroutine sleeps through each window; all load
// comes from the cluster's own generator, source or clients.
func timedPhase(c *cluster, p plan) windowStats {
	var ws windowStats
	perSink := int(float64(p.windows)*p.window.Seconds()*latRate(c.spec)*1.5) + 1024
	for _, sk := range c.sinks {
		sk.reserveLat(perSink)
		if c.spec.dgram {
			sk.verifyFrom(uint32(c.gen.offered.Load()))
		}
	}
	marks := make([][]int, p.windows+1)
	mark := func(i int) {
		marks[i] = make([]int, len(c.sinks))
		for k, sk := range c.sinks {
			marks[i][k] = sk.latMark()
		}
	}
	start := time.Now()
	n0, cpu0, a0, t0 := c.counts(), cpuTime(), mallocs(), start
	first := n0
	firstCPU := cpu0
	mark(0)
	for w := 1; w <= p.windows; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * p.window)))
		n1, cpu1, a1, t1 := c.counts(), cpuTime(), mallocs(), time.Now()
		mark(w)
		dt := t1.Sub(t0).Seconds()
		hops := float64(n1.hops - n0.hops)
		ws.goodput = append(ws.goodput, float64(n1.bytes-n0.bytes)/float64(len(c.sinks))/dt/(1<<20))
		ws.hopsPerS = append(ws.hopsPerS, hops/dt)
		if hops > 0 {
			ws.cpuPerHop = append(ws.cpuPerHop, float64((cpu1-cpu0).Microseconds())/hops)
			ws.allocsPerHop = append(ws.allocsPerHop, float64(a1-a0)/hops)
		}
		n0, cpu0, a0, t0 = n1, cpu1, a1, t1
	}
	ws.wall = time.Since(start)
	for _, sk := range c.sinks {
		ws.latLost += sk.latDropped()
	}
	ws.hops = n0.hops - first.hops
	ws.cycles = n0.cycles - first.cycles
	ws.cpu = cpu0 - firstCPU
	for w := 1; w <= p.windows; w++ {
		var lat []uint32
		for k, sk := range c.sinks {
			lat = append(lat, sk.latSamples(marks[w-1][k], marks[w][k])...)
		}
		slices.Sort(lat)
		if len(lat) > 0 {
			ws.latP50 = append(ws.latP50, percentile(lat, 0.50)/1e3)
			ws.latP90 = append(ws.latP90, percentile(lat, 0.90)/1e3)
		}
		ws.lat = append(ws.lat, lat...)
	}
	slices.Sort(ws.lat)
	return ws
}

// latRate is the expected latency samples per second at one sink.
func latRate(s spec) float64 {
	if s.shape == hubShape {
		return 100 // a leaf is visited a few times a second
	}
	return float64(s.rate)
}

// start builds a cluster and waits for the first verified delivery at
// every sink; it returns how long that took from the start of the build.
func start(s spec, seed int64, traced, peak bool) (*cluster, float64, error) {
	c, err := build(s, seed, traced, peak)
	if err != nil {
		return nil, 0, err
	}
	sec, err := c.awaitReady(20 * time.Second)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, sec, nil
}

// runWorkload builds, measures and verifies one workload.
func runWorkload(s spec, p plan) (*result, error) {
	r := &result{
		Workload: s.name, Seed: p.seed, Traced: p.traced, Correct: true,
		Metrics: map[string]stat{}, Extra: map[string]float64{}, PhaseS: map[string]float64{},
	}
	phase := func(name string, since time.Time) { r.PhaseS[name] += time.Since(since).Seconds() }

	// Set-up, several times over: each cluster is built from nothing and
	// timed until the first verified delivery at every sink. All but the
	// last are torn down again.
	t := time.Now()
	var setups []float64
	var c *cluster
	for i := 0; i < p.setups; i++ {
		if c != nil {
			c.stop()
		}
		var sec float64
		var err error
		if c, sec, err = start(s, p.seed, false, false); err != nil {
			return nil, err
		}
		setups = append(setups, sec)
	}
	r.Metrics["setup_s"] = summarise("s", setups)
	r.Shards = len(c.engines[0].Snapshot().Shards)
	phase("setup", t)

	t = time.Now()
	time.Sleep(p.warmup)
	phase("warmup", t)

	t = time.Now()
	ws := timedPhase(c, p)
	phase("timed", t)
	deliveredFrac := r.verify(c)
	c.stop()
	if ws.latLost > 0 {
		r.problem("sinks dropped %d latency samples: sample arrays too small", ws.latLost)
	}

	if !p.traced {
		r.Metrics["goodput_MBps"] = summarise("MiB/s", ws.goodput)
		r.Metrics["hops_per_s"] = summarise("1/s", ws.hopsPerS)
		r.Metrics["allocs_per_hop"] = summarise("count", ws.allocsPerHop)
		r.Metrics["lat_p50_us"] = summarise("us", ws.latP50)
		r.Metrics["lat_p90_us"] = summarise("us", ws.latP90)
		for _, m := range endToEnd {
			if r.Metrics[m.Name].N == 0 {
				r.problem("%s: no sample in any window", m.Name)
			}
		}
		return r, nil
	}

	// Traced run: the same workload again behind the wrappers. The
	// untraced windows above are its reference.
	t = time.Now()
	tc, _, err := start(s, p.seed, true, false)
	if err != nil {
		return nil, err
	}
	time.Sleep(p.warmup)
	phase("traced_setup_warmup", t)

	t = time.Now()
	hist0 := mergeReports(tc.engines)
	conn0, n0 := tc.tr.connTotals(), tc.counts()
	tws := timedPhase(tc, p)
	conn1, n1 := tc.tr.connTotals(), tc.counts()
	phase("traced", t)
	tr := &result{Correct: true}
	tr.verify(tc)
	for _, pr := range tr.Problems {
		r.problem("traced run: %s", pr)
	}
	snap := mergeReports(tc.engines)
	var lateness []uint32
	if tc.gen != nil {
		lateness = tc.gen.lateness()
	}
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	tc.stop()

	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.Name == name {
				r.Metrics[name] = single(m.Unit, v)
				return
			}
		}
		panic("unknown per-layer metric " + name)
	}
	for _, m := range perLayer {
		set(m.Name, 0) // rows that do not apply to this workload read zero
	}

	// Traced rows.
	msgs := float64(n1.hops - n0.hops)
	processNs, transit := tc.tr.spanStats()
	set("multicast.process_ns", processNs)
	if len(transit) > 0 {
		set("engine.hop_transit_p50_us", transit[len(transit)/2])
		set("engine.hop_transit_p90_us", transit[len(transit)*9/10])
	}
	if msgs > 0 {
		set("engine.write_calls_per_msg", float64(conn1.writeCalls-conn0.writeCalls)/msgs)
		set("engine.read_calls_per_msg", float64(conn1.readCalls-conn0.readCalls)/msgs)
		set("engine.write_ns_per_msg", float64(conn1.writeNs-conn0.writeNs)/msgs)
	}
	if reads := conn1.readCalls - conn0.readCalls; reads > 0 {
		set("engine.bytes_per_read", float64(conn1.readBytes-conn0.readBytes)/float64(reads))
	}

	// Snapshot rows, over the traced windows.
	snap.sub(hist0)
	set("engine.switch_batch_p50", float64(snap.switchBatch.Quantile(0.5)))
	set("engine.send_batch_p50", float64(snap.sendBatch.Quantile(0.5)))
	set("engine.queue_delay_p50_us", float64(snap.queueData.Quantile(0.5))/1e3)
	set("engine.queue_delay_p99_us", float64(snap.queueData.Quantile(0.99))/1e3)
	set("engine.handoff_peak", float64(snap.handoffPeak))
	set("engine.buffered_peak_KB", float64(snap.bufferedPeak)/1024)
	set("engine.msgs_shed", float64(snap.ctr.MsgsShed))
	set("engine.msgs_dropped", float64(snap.ctr.MsgsDropped))
	set("engine.dgram_refused", float64(snap.ctr.DgramRefused))
	set("engine.conns_shed", float64(snap.ctr.ConnsShed))
	set("engine.handshakes_failed", float64(snap.ctr.HandshakesFailed))

	// Validity rows.
	if len(lateness) > 0 {
		slices.Sort(lateness)
		set("bench.gen_late_p99_us", percentile(lateness, 0.99)/1e3)
	}
	set("bench.lat_p99_us", percentile(ws.lat, 0.99)/1e3)
	set("bench.heap_peak_MB", float64(heap.HeapSys)/(1<<20))
	untraced, traced := summarise("us", ws.cpuPerHop).Median, summarise("us", tws.cpuPerHop).Median
	if untraced > 0 {
		set("bench.trace_overhead_frac", traced/untraced-1)
		r.Extra["bench.trace_overhead_frac.base_cpu_us_per_hop"] = untraced
	}

	// End-to-end readings without a relative bound.
	set("cpu_us_per_hop", untraced)
	set("delivered_frac", deliveredFrac)
	if s.shape == hubShape && ws.cycles > 0 {
		set("links_per_s", float64(ws.cycles)/ws.wall.Seconds())
		set("link_setup_p50_ms", percentile(ws.lat, 0.5)/1e6)
		set("cpu_us_per_link", float64(ws.cpu.Microseconds())/float64(ws.cycles))
	}

	// Back-to-back reading of the stream chains, the paper's Fig 5 set-up:
	// the same chain once more, untraced, driven by StartSource. It keeps
	// every core busy, so its CPU per hop has no idle spinning in it and is
	// the base the layer rows are summed against.
	perHop := untraced
	if s.hasPeak() {
		t = time.Now()
		pc, _, err := start(s, p.seed, false, true)
		if err != nil {
			return nil, err
		}
		time.Sleep(p.warmup)
		pws := timedPhase(pc, p)
		pr := &result{Correct: true}
		pr.verify(pc)
		for _, msg := range pr.Problems {
			r.problem("back-to-back run: %s", msg)
		}
		pc.stop()
		perHop = summarise("us", pws.cpuPerHop).Median
		set("peak_goodput_MBps", summarise("MiB/s", pws.goodput).Median)
		set("peak_hops_per_s", summarise("1/s", pws.hopsPerS).Median)
		set("peak_cpu_us_per_hop", perHop)
		phase("peak", t)
	}

	// Micro rows, then the derived rows that need both.
	if p.micro {
		t = time.Now()
		for _, row := range runMicro() {
			set(row.name, row.value)
			r.Extra[row.name+".allocs_per_op"] = row.allocs
		}
		phase("micro", t)
		if s.shape != hubShape && perHop > 0 {
			explained := explainedUs(s, r.Metrics)
			set("engine.self_us_per_hop", perHop-explained)
			set("bench.explained_frac", explained/perHop)
			r.Extra["bench.explained_frac.base_cpu_us_per_hop"] = perHop
		}
	}

	t = time.Now()
	if err := tc.tr.writeFile(traceFilePath(s.name)); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	phase("trace_file", t)
	return r, nil
}

// explainedUs sums the layer costs one hop is known to pay: the
// Forwarder's Process (which includes the sender-ring push), one pass
// through a vnet pipe, one wire-image decode, and two cross-goroutine ring
// handoffs (receiver → switch, switch → sender). The byte-dependent rows
// are interpolated between their 64 B and 5 KiB measurements.
func explainedUs(s spec, m map[string]stat) float64 {
	v := func(name string) float64 { return m[name].Median }
	byBytes := func(at64, at5k float64) float64 {
		return at64 + (at5k-at64)*float64(s.payload-64)/float64(5120-64)
	}
	wire5k := float64(5120 + 24)
	pipe5k := wire5k / (v("vnet.pipe_MBps_5k") * (1 << 20)) * 1e9 // ns per 5 KiB message
	ns := v("multicast.process_ns") +
		byBytes(v("vnet.pipe_ns_per_write_64"), pipe5k) +
		byBytes(v("message.decode_64_ns"), v("message.decode_5k_ns")) +
		2*v("queue.handoff_ns_per_msg")
	return ns / 1e3
}

// merged is the engines' own view of a run, folded over all nodes.
type merged struct {
	switchBatch, sendBatch, queueData mx.HistogramSnapshot
	handoffPeak                       uint32
	bufferedPeak                      int64
	ctr                               mx.CountersSnapshot
}

func mergeReports(engines []*engine.Engine) merged {
	var m merged
	for _, e := range engines {
		rp := e.Snapshot()
		m.switchBatch.Merge(rp.SwitchBatchHist)
		m.sendBatch.Merge(rp.SendBatchHist)
		m.queueData.Merge(rp.QueueDataHist)
		for _, sh := range rp.Shards {
			m.handoffPeak = max(m.handoffPeak, sh.HandoffPeak)
		}
		m.bufferedPeak = max(m.bufferedPeak, rp.MaxBufferedBytes)
	}
	m.ctr = sumCounters(engines)
	return m
}

// sumCounters adds up the loss and refusal counters of all engines.
func sumCounters(engines []*engine.Engine) mx.CountersSnapshot {
	var sum mx.CountersSnapshot
	for _, e := range engines {
		c := e.Counters()
		sum.MsgsShed += c.MsgsShed
		sum.MsgsDropped += c.MsgsDropped
		sum.DgramRefused += c.DgramRefused
		sum.ConnsShed += c.ConnsShed
		sum.HandshakesFailed += c.HandshakesFailed
	}
	return sum
}

// sub removes an earlier snapshot from the histograms, leaving the
// distribution of the interval between the two. Counters and peaks stay
// cumulative: a shed message or a failed handshake counts whenever it
// happened.
func (m *merged) sub(earlier merged) {
	m.switchBatch.Sub(earlier.switchBatch)
	m.sendBatch.Sub(earlier.sendBatch)
	m.queueData.Sub(earlier.queueData)
}
