package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/tree"
)

// treeApp is the dissemination session id used by the tree experiments,
// whose sources send treeMsgSize-byte messages as fast as the tree takes
// them.
const (
	treeApp     = 1
	treeMsgSize = 1 << 10
)

// treeVariants are the construction algorithms the tree experiments
// compare, in the paper's column order.
var treeVariants = []tree.Variant{tree.Unicast, tree.Random, tree.StressAware}

// TreeEdge is one parent->child link of a constructed tree.
type TreeEdge struct {
	Parent, Child message.NodeID
}

// Table3Row is one row of Table 3: per-node degree and stress under each
// construction algorithm.
type Table3Row struct {
	Node   string
	Degree map[tree.Variant]int
	Stress map[tree.Variant]float64
}

// Fig9Result is one panel of Fig. 9: the tree one variant builds on the
// five-node session, with measured per-receiver throughput.
type Fig9Result struct {
	Variant    tree.Variant
	Edges      []TreeEdge
	Throughput map[string]float64 // receiver name -> bytes/sec
}

// TreeSmallConfig parameterizes the five-node experiment.
type TreeSmallConfig struct {
	JoinWait time.Duration // settle after each join (stress exchange)
	Window   time.Duration
}

func (c *TreeSmallConfig) applyDefaults() {
	if c.JoinWait <= 0 {
		c.JoinWait = 300 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
}

// The five-node session of Fig. 9 / Table 3: S is the source; the
// annotated per-node available bandwidths are in KBps; nodes join in the
// order D, A, C, B.
var (
	treeSmallNames = []string{"S", "A", "B", "C", "D"}
	treeSmallBW    = map[string]int64{
		"S": 200 << 10, "A": 500 << 10, "B": 100 << 10, "C": 200 << 10, "D": 100 << 10,
	}
	treeSmallJoinOrder = []string{"D", "A", "C", "B"}
)

// TreeSmall runs the five-node session under every variant, returning
// Table 3 and the Fig. 9 panels.
func TreeSmall(cfg TreeSmallConfig) ([]Table3Row, []Fig9Result, error) {
	cfg.applyDefaults()
	rows := make(map[string]*Table3Row, len(treeSmallNames))
	for _, n := range treeSmallNames {
		rows[n] = &Table3Row{
			Node:   n,
			Degree: make(map[tree.Variant]int),
			Stress: make(map[tree.Variant]float64),
		}
	}
	var figs []Fig9Result
	for _, v := range treeVariants {
		fig, degrees, stresses, err := treeSmallOne(v, cfg)
		if err != nil {
			return nil, nil, err
		}
		figs = append(figs, *fig)
		for n, d := range degrees {
			rows[n].Degree[v] = d
			rows[n].Stress[v] = stresses[n]
		}
	}
	ordered := make([]Table3Row, 0, len(treeSmallNames))
	for _, n := range treeSmallNames {
		ordered = append(ordered, *rows[n])
	}
	return ordered, figs, nil
}

func treeSmallOne(v tree.Variant, cfg TreeSmallConfig) (*Fig9Result, map[string]int, map[string]float64, error) {
	c, err := NewCluster(true)
	if err != nil {
		return nil, nil, nil, err
	}
	defer c.Stop()

	ids := make(map[string]message.NodeID)
	algs := make(map[string]*tree.Tree)
	var trees []*tree.Tree
	for i, name := range treeSmallNames {
		ids[name] = nodeID(i)
		algs[name] = &tree.Tree{Variant: v, App: treeApp, LastMile: treeSmallBW[name]}
		trees = append(trees, algs[name])
		_, err := c.AddNode(ids[name], algs[name], func(conf *engine.Config) {
			conf.UpBW = treeSmallBW[name]
			conf.DownBW = treeSmallBW[name]
			conf.RecvBuf, conf.SendBuf = 16, 16
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if !c.Obs.WaitForNodes(len(treeSmallNames), 5*time.Second) {
		return nil, nil, nil, fmt.Errorf("tree: bootstrap incomplete")
	}
	if err := c.deployTree(ids["S"], trees, 0, treeMsgSize); err != nil {
		return nil, nil, nil, err
	}
	for _, n := range treeSmallJoinOrder {
		c.Obs.Join(ids[n], treeApp, message.NodeID{})
		if err := waitJoin(algs[n], 5*time.Second); err != nil {
			return nil, nil, nil, fmt.Errorf("tree %s: %s: %w", v, n, err)
		}
		time.Sleep(cfg.JoinWait)
	}

	// Measure per-receiver throughput.
	before := make(map[string]int64)
	for _, n := range treeSmallJoinOrder {
		before[n] = algs[n].ReceivedBytes()
	}
	time.Sleep(cfg.Window)
	throughput := make(map[string]float64)
	for _, n := range treeSmallJoinOrder {
		throughput[n] = float64(algs[n].ReceivedBytes()-before[n]) / cfg.Window.Seconds()
	}

	fig := &Fig9Result{Variant: v, Throughput: throughput}
	degrees := make(map[string]int)
	stresses := make(map[string]float64)
	for _, n := range treeSmallNames {
		degrees[n] = algs[n].Degree()
		stresses[n] = algs[n].Stress()
		if p, ok := algs[n].Parent(); ok {
			fig.Edges = append(fig.Edges, TreeEdge{Parent: p, Child: ids[n]})
		}
	}
	sort.Slice(fig.Edges, func(i, j int) bool {
		if fig.Edges[i].Parent != fig.Edges[j].Parent {
			return fig.Edges[i].Parent.Less(fig.Edges[j].Parent)
		}
		return fig.Edges[i].Child.Less(fig.Edges[j].Child)
	})
	return fig, degrees, stresses, nil
}

// deployTree makes src the source of the tree session on a booted cluster
// and returns once every tree knows it, so that no joiner is left to
// query a random host. Boot order cannot guarantee that: registrations are
// asynchronous, and a source whose bootstrap reply missed part of the
// membership floods its announce to part of the session. So the source is
// first pushed the full view — on the same observer link as the deploy,
// which therefore finds it in place — and the announce flood is awaited,
// not slept through. The error names the trees still ignorant.
func (c *Cluster) deployTree(src message.NodeID, trees []*tree.Tree, rate int64, msgSize int) error {
	c.Obs.PushMembership(src)
	c.Obs.Deploy(src, treeApp, rate, uint32(msgSize))
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ignorant []string
		for _, t := range trees {
			if t.Source() != src {
				ignorant = append(ignorant, t.API.ID().String())
			}
		}
		if len(ignorant) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tree: %d of %d nodes never learned the source %s: %s",
				len(ignorant), len(trees), src, strings.Join(ignorant, " "))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitJoin(t *tree.Tree, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if t.InSession() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("join timed out")
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: tree construction algorithms — node degree and stress (1/100 KBps)\n")
	b.WriteString("node   degree(unicast/random/ns-aware)   stress(unicast/random/ns-aware)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s        %d / %d / %d                     %.2f / %.2f / %.2f\n",
			r.Node,
			r.Degree[tree.Unicast], r.Degree[tree.Random], r.Degree[tree.StressAware],
			r.Stress[tree.Unicast], r.Stress[tree.Random], r.Stress[tree.StressAware])
	}
	return b.String()
}

// RenderFig9 formats the per-variant trees and throughput.
func RenderFig9(figs []Fig9Result) string {
	var b strings.Builder
	b.WriteString("Fig 9: tree construction — topology and receiver throughput (KBps)\n")
	for _, f := range figs {
		fmt.Fprintf(&b, "  %s tree:\n", f.Variant)
		for _, e := range f.Edges {
			fmt.Fprintf(&b, "    %s -> %s\n", e.Parent, e.Child)
		}
		var names []string
		for n := range f.Throughput {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "    throughput %s: %.1f\n", n, f.Throughput[n]/KB)
		}
	}
	return b.String()
}

// ----- Fig. 11 / 12 / 13: the wide-area (simulated PlanetLab) runs -----

// Fig11Config parameterizes the large-scale tree experiment. The source's
// last-mile bandwidth is the paper's 100 KBps.
type Fig11Config struct {
	// N is the overlay size (81 in the paper).
	N int
	// Seed fixes the synthetic testbed.
	Seed int64
	// JoinGap spaces the joins.
	JoinGap time.Duration
	// Window is the throughput measurement window.
	Window time.Duration
	// Variants selects the algorithms to compare.
	Variants []tree.Variant
}

func (c *Fig11Config) applyDefaults() {
	if c.N <= 0 {
		c.N = 81
	}
	if c.JoinGap <= 0 {
		c.JoinGap = 40 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 3 * time.Second
	}
	if len(c.Variants) == 0 {
		c.Variants = treeVariants
	}
}

// Fig11Variant is one algorithm's large-scale outcome.
type Fig11Variant struct {
	Variant     tree.Variant
	Throughputs []float64 // per receiver, bytes/sec, sorted descending
	Stresses    []float64 // per member, 1/100KBps units, sorted ascending
	Edges       []TreeEdge
	Joined      int
	Mean        float64
}

// Fig11 runs the wide-area tree comparison on a synthetic testbed with
// per-node bandwidth uniform in 50–200 KBps (the paper's PlanetLab
// setup), returning per-receiver throughput (Fig. 11a), the node-stress
// distribution (Fig. 11b), and the constructed topology (Figs. 12/13).
func Fig11(cfg Fig11Config) ([]Fig11Variant, error) {
	cfg.applyDefaults()
	var out []Fig11Variant
	for _, v := range cfg.Variants {
		r, err := fig11One(v, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
	}
	return out, nil
}

func fig11One(v tree.Variant, cfg Fig11Config) (*Fig11Variant, error) {
	tb := simnet.Generate(simnet.Config{N: cfg.N, Seed: cfg.Seed})
	c, err := NewCluster(true, LatencyFromTestbed(tb))
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	trees := make([]*tree.Tree, 0, cfg.N) // indexed like tb.Nodes
	// Node 0 is the source, at 100 KBps.
	for i, n := range tb.Nodes[:cfg.N] {
		bw := n.Bandwidth
		if i == 0 {
			bw = 100 << 10
		}
		alg := &tree.Tree{Variant: v, App: treeApp, LastMile: bw}
		trees = append(trees, alg)
		if _, err := c.AddNode(n.ID, alg, func(conf *engine.Config) {
			conf.UpBW = bw
			conf.DownBW = bw
			conf.RecvBuf, conf.SendBuf = 16, 16
			conf.StatusInterval = 250 * time.Millisecond
		}); err != nil {
			return nil, err
		}
	}
	if !c.Obs.WaitForNodes(cfg.N, 15*time.Second) {
		return nil, fmt.Errorf("fig11: bootstrap incomplete (%d alive)", len(c.Obs.Alive()))
	}
	if err := c.deployTree(tb.Nodes[0].ID, trees, 0, treeMsgSize); err != nil {
		return nil, err
	}
	for i := 1; i < cfg.N; i++ {
		c.Obs.Join(tb.Nodes[i].ID, treeApp, message.NodeID{})
		time.Sleep(cfg.JoinGap)
	}
	// Let stragglers finish joining.
	deadline := time.Now().Add(10 * time.Second)
	joined := 0
	for time.Now().Before(deadline) {
		joined = 0
		for i := 1; i < cfg.N; i++ {
			if trees[i].InSession() {
				joined++
			}
		}
		if joined == cfg.N-1 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	before := make(map[message.NodeID]int64, cfg.N)
	for i := 1; i < cfg.N; i++ {
		before[tb.Nodes[i].ID] = trees[i].ReceivedBytes()
	}
	time.Sleep(cfg.Window)

	res := &Fig11Variant{Variant: v, Joined: joined}
	var sum float64
	for i := 1; i < cfg.N; i++ {
		id := tb.Nodes[i].ID
		rate := float64(trees[i].ReceivedBytes()-before[id]) / cfg.Window.Seconds()
		res.Throughputs = append(res.Throughputs, rate)
		sum += rate
	}
	for i := 0; i < cfg.N; i++ {
		id := tb.Nodes[i].ID
		res.Stresses = append(res.Stresses, trees[i].Stress())
		if p, ok := trees[i].Parent(); ok {
			res.Edges = append(res.Edges, TreeEdge{Parent: p, Child: id})
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(res.Throughputs)))
	sort.Float64s(res.Stresses)
	if len(res.Throughputs) > 0 {
		res.Mean = sum / float64(len(res.Throughputs))
	}
	return res, nil
}

// RenderFig11 formats the comparison.
func RenderFig11(results []Fig11Variant) string {
	var b strings.Builder
	b.WriteString("Fig 11: wide-area tree construction comparison\n")
	for _, r := range results {
		median := 0.0
		if len(r.Throughputs) > 0 {
			median = r.Throughputs[len(r.Throughputs)/2]
		}
		p90 := percentileOf(r.Stresses, 0.9)
		fmt.Fprintf(&b,
			"  %-8s joined %d  mean throughput %.1f KBps  median %.1f KBps  p90 stress %.2f  max stress %.2f\n",
			r.Variant, r.Joined, r.Mean/KB, median/KB, p90, maxOf(r.Stresses))
	}
	return b.String()
}

// RenderTopology formats the Fig. 12/13 edge dumps.
func RenderTopology(r Fig11Variant) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s tree (%d edges):\n", r.Variant, len(r.Edges))
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "  %s -> %s\n", e.Parent, e.Child)
	}
	return b.String()
}

func percentileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
