package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/message"
	"repro/internal/simnet"
)

// serviceTypes is the pool of primitive service types in the federation
// experiments.
var serviceTypes = []uint32{1, 2, 3, 4, 5}

// fedCluster boots N federation nodes on a synthetic testbed and assigns
// one service per node (types cycling through the pool), waiting for the
// sAware dissemination to populate every registry.
type fedCluster struct {
	*Cluster
	tb   *simnet.Testbed
	algs map[message.NodeID]*federation.Node
}

func newFedCluster(n int, seed int64, policy federation.Selection) (*fedCluster, error) {
	tb := simnet.Generate(simnet.Config{N: n, Seed: seed})
	c, err := NewCluster(true, LatencyFromTestbed(tb))
	if err != nil {
		return nil, err
	}
	fc := &fedCluster{Cluster: c, tb: tb, algs: make(map[message.NodeID]*federation.Node)}
	for i := n - 1; i >= 0; i-- {
		node := tb.Nodes[i]
		alg := &federation.Node{Policy: policy}
		fc.algs[node.ID] = alg
		if _, err := c.AddNode(node.ID, alg, func(conf *engine.Config) {
			conf.StatusInterval = 300 * time.Millisecond
		}); err != nil {
			c.Stop()
			return nil, err
		}
	}
	if !c.Obs.WaitForNodes(n, 15*time.Second) {
		c.Stop()
		return nil, fmt.Errorf("federation: bootstrap incomplete")
	}
	// Nodes that bootstrapped early have stale membership; refresh every
	// view before services start announcing themselves.
	for _, node := range tb.Nodes {
		c.Obs.PushMembership(node.ID)
	}
	time.Sleep(150 * time.Millisecond)
	return fc, nil
}

// assignAll assigns node i the service type serviceTypes[i % len] with
// capacity from the testbed, then waits for dissemination.
func (fc *fedCluster) assignAll(timeout time.Duration) error {
	for i, node := range fc.tb.Nodes {
		typ := serviceTypes[i%len(serviceTypes)]
		fc.Obs.Command(node.ID, federation.TypeAssign,
			federation.Assign{ServiceType: typ, Capacity: node.Bandwidth}.Encode())
	}
	return fc.waitRegistries(timeout)
}

// waitRegistries waits until every node knows at least one instance of
// every type present in the overlay.
func (fc *fedCluster) waitRegistries(timeout time.Duration) error {
	present := make(map[uint32]bool)
	for i := range fc.tb.Nodes {
		present[serviceTypes[i%len(serviceTypes)]] = true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, alg := range fc.algs {
			for typ := range present {
				if alg.KnownInstances(typ) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("federation: registries incomplete after %v", timeout)
}

// sourceFor finds a node hosting the given type.
func (fc *fedCluster) sourceFor(typ uint32) (message.NodeID, *federation.Node) {
	for i, node := range fc.tb.Nodes {
		if serviceTypes[i%len(serviceTypes)] == typ {
			return node.ID, fc.algs[node.ID]
		}
	}
	return message.NodeID{}, nil
}

// federate launches one requirement at the source instance and waits for
// completion there.
func (fc *fedCluster) federate(session uint32, req federation.Requirement, wait time.Duration) ([]message.NodeID, error) {
	src, alg := fc.sourceFor(req.Types[0])
	if alg == nil {
		return nil, fmt.Errorf("federation: no instance of type %d", req.Types[0])
	}
	f := federation.Federate{SessionID: session, Req: req}
	fc.Obs.Command(src, federation.TypeFederate, f.Encode())
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if assigned, ok := alg.Completed(session); ok {
			return assigned, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("federation: session %d did not complete", session)
}

// overheadTotals sums control bytes (sent) per family across all nodes.
func (fc *fedCluster) overheadTotals() (aware, federate int64) {
	for _, alg := range fc.algs {
		sent := alg.OverheadSent()
		aware += sent[federation.TypeAware]
		federate += sent[federation.TypeFederate] + sent[federation.TypeFederateAck] +
			sent[federation.TypeLoadProbe] + sent[federation.TypeLoadReply]
	}
	return aware, federate
}

// ----- Fig. 14 / 15: one federated complex service on 16 nodes -----

// Fed16Config parameterizes the 16-node service federation experiment.
type Fed16Config struct {
	N      int
	Window time.Duration
}

func (c *Fed16Config) applyDefaults() {
	if c.N <= 0 {
		c.N = 16
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
}

// Fed16NodeRow is one node's line in Fig. 15.
type Fed16NodeRow struct {
	Node          message.NodeID
	ServiceType   uint32
	AwareBytes    int64 // Fig. 15(a)
	FederateBytes int64 // Fig. 15(a)
	UpRate        float64
	DownRate      float64 // Fig. 15(b)
}

// Fed16Result is the outcome of the 16-node session (Figs. 14, 15).
type Fed16Result struct {
	Assignment []message.NodeID // Fig. 14: the constructed complex service
	Rows       []Fed16NodeRow
	LastHop    float64 // measured sink throughput, bytes/sec
	// EndToEndDelay is the critical-path propagation delay of the
	// federated service over the testbed's latency model (the paper
	// reports 934.5 ms for its 16-node PlanetLab session).
	EndToEndDelay time.Duration
}

// Fed16 constructs one federated complex service with a DAG requirement
// on a 16-node service overlay (sFlow policy), deploys live data through
// it, and reports per-node overhead and bandwidth.
func Fed16(cfg Fed16Config) (*Fed16Result, error) {
	cfg.applyDefaults()
	fc, err := newFedCluster(cfg.N, 16, federation.SFlow)
	if err != nil {
		return nil, err
	}
	defer fc.Stop()
	if err := fc.assignAll(10 * time.Second); err != nil {
		return nil, err
	}
	// A diamond-with-tail DAG: 1 -> {2, 3} -> 4 -> 5.
	req := federation.Requirement{
		Types:     []uint32{1, 2, 3, 4, 5},
		Edges:     [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}},
		Bandwidth: 64 << 10,
	}
	const session = 900
	assigned, err := fc.federate(session, req, 10*time.Second)
	if err != nil {
		return nil, err
	}
	// Deploy live data through the federated service.
	fc.Obs.Deploy(assigned[0], session, 200<<10, 1024)
	sink := fc.algs[assigned[len(assigned)-1]]
	time.Sleep(500 * time.Millisecond)
	lastHop := rateOver(cfg.Window, func() int64 { return sink.ReceivedBytes(session) })

	res := &Fed16Result{
		Assignment:    assigned,
		LastHop:       lastHop,
		EndToEndDelay: criticalPathDelay(fc.tb, req, assigned),
	}
	for i, node := range fc.tb.Nodes {
		alg := fc.algs[node.ID]
		sent, recv := alg.OverheadSent(), alg.OverheadRecv()
		snap := fc.Engines[node.ID].Snapshot()
		var up, down float64
		for _, l := range snap.Downstream {
			if l.Peer != ObserverID {
				up += l.Rate
			}
		}
		for _, l := range snap.Upstreams {
			down += l.Rate
		}
		res.Rows = append(res.Rows, Fed16NodeRow{
			Node:        node.ID,
			ServiceType: serviceTypes[i%len(serviceTypes)],
			AwareBytes:  sent[federation.TypeAware] + recv[federation.TypeAware],
			FederateBytes: sent[federation.TypeFederate] + recv[federation.TypeFederate] +
				sent[federation.TypeFederateAck] + recv[federation.TypeFederateAck],
			UpRate:   up,
			DownRate: down,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return res.Rows[i].UpRate+res.Rows[i].DownRate > res.Rows[j].UpRate+res.Rows[j].DownRate
	})
	return res, nil
}

// criticalPathDelay computes the longest propagation path through the
// requirement DAG under the testbed latency model.
func criticalPathDelay(tb *simnet.Testbed, req federation.Requirement, assigned []message.NodeID) time.Duration {
	byID := make(map[message.NodeID]simnet.Node)
	for _, n := range tb.Nodes {
		byID[n.ID] = n
	}
	longest := make([]time.Duration, len(req.Types))
	for _, e := range req.Edges { // edges are in topological order
		u, v := e[0], e[1]
		na, okA := byID[assigned[u]]
		nb, okB := byID[assigned[v]]
		if !okA || !okB {
			continue
		}
		d := longest[u] + simnet.Latency(na, nb)
		if d > longest[v] {
			longest[v] = d
		}
	}
	var max time.Duration
	for _, d := range longest {
		if d > max {
			max = d
		}
	}
	return max
}

// RenderFed16 formats Figs. 14 and 15.
func RenderFed16(r *Fed16Result) string {
	var b strings.Builder
	b.WriteString("Fig 14: constructed complex service (requirement vertices -> instances)\n")
	for i, n := range r.Assignment {
		fmt.Fprintf(&b, "  vertex %d -> %s\n", i, n)
	}
	fmt.Fprintf(&b, "  last-hop throughput: %.0f Bps\n", r.LastHop)
	fmt.Fprintf(&b, "  end-to-end delay (modeled critical path): %s\n", r.EndToEndDelay.Round(time.Millisecond))
	b.WriteString("Fig 15: per-node control overhead and bandwidth\n")
	b.WriteString("  node                 svc  sAware(B)  sFederate(B)  up(KBps)  down(KBps)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s %3d  %9d  %12d  %8.1f  %10.1f\n",
			row.Node, row.ServiceType, row.AwareBytes, row.FederateBytes,
			row.UpRate/KB, row.DownRate/KB)
	}
	return b.String()
}

// ----- Fig. 16: sAware overhead over time (30-node overlay) -----

// Fig16Config parameterizes the time-series overhead experiment: the
// paper establishes a 30-node service overlay with an average of three
// new services per minute, observing sAware overhead over 22 minutes.
// MinuteDur compresses each paper-minute.
type Fig16Config struct {
	N         int
	Minutes   int
	MinuteDur time.Duration
}

// fig16ServicesPerMin is the paper's service arrival rate.
const fig16ServicesPerMin = 3

func (c *Fig16Config) applyDefaults() {
	if c.N <= 0 {
		c.N = 30
	}
	if c.Minutes <= 0 {
		c.Minutes = 22
	}
	if c.MinuteDur <= 0 {
		c.MinuteDur = 250 * time.Millisecond
	}
}

// Fig16Point is the sAware bytes generated in one paper-minute.
type Fig16Point struct {
	Minute int
	Bytes  int64
}

// Fig16 measures sAware control overhead over time while services join
// the overlay at the configured rate (joining stops when every node
// hosts a service, which reproduces the paper's decay after ~10
// minutes).
func Fig16(cfg Fig16Config) ([]Fig16Point, error) {
	cfg.applyDefaults()
	fc, err := newFedCluster(cfg.N, 77, federation.SFlow)
	if err != nil {
		return nil, err
	}
	defer fc.Stop()

	var points []Fig16Point
	next := 0
	prev := int64(0)
	for minute := 1; minute <= cfg.Minutes; minute++ {
		for k := 0; k < fig16ServicesPerMin && next < cfg.N; k++ {
			node := fc.tb.Nodes[next]
			typ := serviceTypes[next%len(serviceTypes)]
			fc.Obs.Command(node.ID, federation.TypeAssign,
				federation.Assign{ServiceType: typ, Capacity: node.Bandwidth}.Encode())
			next++
		}
		time.Sleep(cfg.MinuteDur)
		aware, _ := fc.overheadTotals()
		points = append(points, Fig16Point{Minute: minute, Bytes: aware - prev})
		prev = aware
	}
	return points, nil
}

// RenderFig16 formats the time series.
func RenderFig16(points []Fig16Point) string {
	var b strings.Builder
	b.WriteString("Fig 16: sAware overhead over time, 30-node overlay (bytes per paper-minute)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  minute %2d: %8d\n", p.Minute, p.Bytes)
	}
	return b.String()
}

// ----- Fig. 17 / 18 / 19: overhead and bandwidth vs network size -----

// FedSweepConfig parameterizes the network-size sweeps. Every requirement
// asks for 100 KBps.
type FedSweepConfig struct {
	Sizes        []int
	Requirements int // federated sessions per size (paper: 500)
	Policy       federation.Selection
}

func (c *FedSweepConfig) applyDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{5, 10, 15, 20, 25, 30, 35, 40}
	}
	if c.Requirements <= 0 {
		c.Requirements = 500
	}
	if c.Policy == 0 {
		c.Policy = federation.SFlow
	}
}

// Fig17Row is one sweep point: total control overhead by family.
type Fig17Row struct {
	Size          int
	AwareBytes    int64
	FederateBytes int64
	Completed     int
	Failed        int
	// PerNode carries Fig. 18's per-node breakdown for this size.
	PerNode []Fig18Row
	// MeanBandwidth is Fig. 19's end-to-end bandwidth estimate.
	MeanBandwidth float64
}

// Fig18Row is one node's control overhead.
type Fig18Row struct {
	Node          message.NodeID
	AwareBytes    int64
	FederateBytes int64
}

// FedSweep runs the network-size sweep: for each size, build the service
// overlay, issue the requirement stream, and account control overhead
// (Fig. 17), per-node overhead (Fig. 18) and end-to-end bandwidth of the
// federated services (Fig. 19).
func FedSweep(cfg FedSweepConfig) ([]Fig17Row, error) {
	cfg.applyDefaults()
	var rows []Fig17Row
	for _, size := range cfg.Sizes {
		row, err := fedSweepOne(size, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func fedSweepOne(size int, cfg FedSweepConfig) (*Fig17Row, error) {
	fc, err := newFedCluster(size, int64(size), cfg.Policy)
	if err != nil {
		return nil, err
	}
	defer fc.Stop()
	if err := fc.assignAll(15 * time.Second); err != nil {
		return nil, err
	}

	row := &Fig17Row{Size: size}
	var sessions []uint32
	srcByType := make(map[uint32]*federation.Node)
	for _, typ := range serviceTypes {
		_, alg := fc.sourceFor(typ)
		srcByType[typ] = alg
	}
	for s := 0; s < cfg.Requirements; s++ {
		// Random chain requirement over 3–4 service types.
		length := 3 + s%2
		types := make([]uint32, 0, length)
		for k := 0; k < length; k++ {
			types = append(types, serviceTypes[(s+k)%len(serviceTypes)])
		}
		req := federation.Chain(100<<10, types...)
		session := uint32(1000 + s)
		if _, err := fc.federate(session, req, 5*time.Second); err != nil {
			row.Failed++
			continue
		}
		sessions = append(sessions, session)
		row.Completed++
	}
	row.AwareBytes, row.FederateBytes = fc.overheadTotals()
	for _, node := range fc.tb.Nodes {
		sent := fc.algs[node.ID].OverheadSent()
		recv := fc.algs[node.ID].OverheadRecv()
		row.PerNode = append(row.PerNode, Fig18Row{
			Node:       node.ID,
			AwareBytes: sent[federation.TypeAware] + recv[federation.TypeAware],
			FederateBytes: sent[federation.TypeFederate] + recv[federation.TypeFederate] +
				sent[federation.TypeFederateAck] + recv[federation.TypeFederateAck] +
				sent[federation.TypeLoadProbe] + recv[federation.TypeLoadProbe] +
				sent[federation.TypeLoadReply] + recv[federation.TypeLoadReply],
		})
	}
	sort.Slice(row.PerNode, func(i, j int) bool {
		return row.PerNode[i].FederateBytes > row.PerNode[j].FederateBytes
	})
	row.MeanBandwidth = fc.meanSessionBandwidth(sessions)
	return row, nil
}

// meanSessionBandwidth estimates Fig. 19's end-to-end bandwidth: for each
// completed session, the bottleneck instance's capacity divided by the
// sessions sharing it.
func (fc *fedCluster) meanSessionBandwidth(sessions []uint32) float64 {
	if len(sessions) == 0 {
		return 0
	}
	var sum float64
	counted := 0
	for _, s := range sessions {
		var assigned []message.NodeID
		for _, alg := range fc.algs {
			if a, ok := alg.Completed(s); ok {
				assigned = a
				break
			}
		}
		if assigned == nil {
			continue
		}
		bottleneck := -1.0
		seen := make(map[message.NodeID]bool)
		for _, node := range assigned {
			if node.IsZero() || seen[node] {
				continue
			}
			seen[node] = true
			capacity := float64(fc.tb.BandwidthOf(node))
			load := fc.algs[node].SessionCount()
			if load < 1 {
				load = 1
			}
			share := capacity / float64(load)
			if bottleneck < 0 || share < bottleneck {
				bottleneck = share
			}
		}
		if bottleneck >= 0 {
			sum += bottleneck
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// RenderFig17 formats the overhead sweep.
func RenderFig17(rows []Fig17Row) string {
	var b strings.Builder
	b.WriteString("Fig 17: control overhead vs network size\n")
	b.WriteString("  size  sAware(B)  sFederate(B)  completed  failed\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %4d  %9d  %12d  %9d  %6d\n",
			r.Size, r.AwareBytes, r.FederateBytes, r.Completed, r.Failed)
	}
	return b.String()
}

// RenderFig18 formats the per-node breakdown of one sweep point.
func RenderFig18(row Fig17Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 18: per-node control overhead (network size %d)\n", row.Size)
	for _, n := range row.PerNode {
		fmt.Fprintf(&b, "  %-20s  sAware %8d B   sFederate %8d B\n",
			n.Node, n.AwareBytes, n.FederateBytes)
	}
	return b.String()
}

// RenderFig19 compares policies.
func RenderFig19(byPolicy map[federation.Selection][]Fig17Row) string {
	var b strings.Builder
	b.WriteString("Fig 19: end-to-end bandwidth of federated services (Bps)\n")
	b.WriteString("  size     sFlow     fixed    random\n")
	var sizes []int
	for _, rows := range byPolicy {
		for _, r := range rows {
			sizes = append(sizes, r.Size)
		}
		break
	}
	for i, size := range sizes {
		get := func(p federation.Selection) float64 {
			rows := byPolicy[p]
			if i < len(rows) {
				return rows[i].MeanBandwidth
			}
			return 0
		}
		fmt.Fprintf(&b, "  %4d  %8.0f  %8.0f  %8.0f\n",
			size, get(federation.SFlow), get(federation.Fixed), get(federation.RandomSel))
	}
	return b.String()
}
