package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/flowsim"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// The seven-node correctness topology of Figs. 6 and 7: A->{B,C},
// B->{D,F}, C->{D,G}, D->E, E->{F,G}.
var (
	fig6Names = []string{"A", "B", "C", "D", "E", "F", "G"}
	fig6Edges = map[string][]string{
		"A": {"B", "C"},
		"B": {"D", "F"},
		"C": {"D", "G"},
		"D": {"E"},
		"E": {"F", "G"},
	}
)

// EdgeRates maps "AB"-style edges to throughput in bytes/sec.
type EdgeRates map[string]float64

// Fig6Phase is one panel of Fig. 6 or Fig. 7.
type Fig6Phase struct {
	Name      string
	Measured  EdgeRates
	Predicted EdgeRates // flowsim steady-state for the same scenario
	Closed    []string  // edges torn down by node terminations
}

// Fig6Config parameterizes the correctness experiments.
type Fig6Config struct {
	// Settle is the wait before measuring each phase.
	Settle time.Duration
	// Window is the measurement window.
	Window time.Duration
}

// fig6MsgSize is the source's payload: 1 KB rather than the paper's 5 KB
// so per-hop buffering (rings plus virtual-network pipes) drains within
// seconds at the 15–30 KBps back-pressured rates; the steady-state rates
// are independent of message size.
const fig6MsgSize = 1 << 10

func (c *Fig6Config) applyDefaults() {
	if c.Settle <= 0 {
		c.Settle = 3 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 1500 * time.Millisecond
	}
}

// fig6Cluster boots the seven-node topology with A capped at 400 KBps
// total, every buffer bufferMsgs long (5 in Fig. 6, 10000 in Fig. 7) and
// a back-to-back source at A. Shallow vnet pipes keep per-hop byte
// backlog small so convergence after runtime bandwidth changes is fast,
// like small kernel socket buffers would.
func fig6Cluster(bufferMsgs int) (*Cluster, map[string]message.NodeID, error) {
	c, err := NewCluster(false, vnet.WithPipeCapacity(4<<10))
	if err != nil {
		return nil, nil, err
	}
	ids := make(map[string]message.NodeID, len(fig6Names))
	for i, name := range fig6Names {
		ids[name] = nodeID(i)
	}
	for i := len(fig6Names) - 1; i >= 0; i-- {
		name := fig6Names[i]
		alg := &multicast.Forwarder{}
		for _, dst := range fig6Edges[name] {
			alg.DefaultRoutes = append(alg.DefaultRoutes, ids[dst])
		}
		_, err := c.AddNode(ids[name], alg, func(conf *engine.Config) {
			conf.RecvBuf, conf.SendBuf = bufferMsgs, bufferMsgs
			if name == "A" {
				conf.TotalBW = 400 << 10
			}
		})
		if err != nil {
			c.Stop()
			return nil, nil, err
		}
	}
	c.Engines[ids["A"]].StartSource(1, 0, fig6MsgSize)
	return c, ids, nil
}

// measureEdges samples per-link throughput from each sender's meters.
func measureEdges(c *Cluster, ids map[string]message.NodeID, window time.Duration) (EdgeRates, []string) {
	type key struct{ from, to string }
	before := make(map[key]int64)
	read := func() map[key]int64 {
		out := make(map[key]int64)
		for from, dsts := range fig6Edges {
			e, ok := c.Engines[ids[from]]
			if !ok {
				continue
			}
			snap := e.Snapshot()
			for _, dst := range dsts {
				for _, l := range snap.Downstream {
					if l.Peer == ids[dst] {
						out[key{from, dst}] = l.BytesTotal
					}
				}
			}
		}
		return out
	}
	before = read()
	time.Sleep(window)
	after := read()

	rates := make(EdgeRates)
	var closed []string
	for from, dsts := range fig6Edges {
		for _, dst := range dsts {
			k := key{from, dst}
			a, okA := after[k]
			b, okB := before[k]
			if !okA || !okB {
				closed = append(closed, from+dst)
				continue
			}
			rates[from+dst] = float64(a-b) / window.Seconds()
		}
	}
	sort.Strings(closed)
	return rates, closed
}

// measureStable repeats measureEdges until two consecutive samples agree
// within tolerance (or attempts run out), making the harness robust to
// transient host load during convergence.
func measureStable(c *Cluster, ids map[string]message.NodeID, window time.Duration) (EdgeRates, []string) {
	const (
		attempts = 8
		tol      = 0.2
	)
	prev, closed := measureEdges(c, ids, window)
	for i := 0; i < attempts; i++ {
		cur, curClosed := measureEdges(c, ids, window)
		if ratesStable(prev, cur, tol) {
			return cur, curClosed
		}
		prev, closed = cur, curClosed
	}
	return prev, closed
}

// ratesStable reports whether two samples agree edge-by-edge within the
// relative tolerance (with a small absolute floor for near-idle links).
func ratesStable(a, b EdgeRates, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	const floor = 4 * KB
	for e, ra := range a {
		rb, ok := b[e]
		if !ok {
			return false
		}
		hi := ra
		if rb > hi {
			hi = rb
		}
		if hi < floor {
			continue
		}
		diff := ra - rb
		if diff < 0 {
			diff = -diff
		}
		if diff > tol*hi {
			return false
		}
	}
	return true
}

// fig6Predict runs flowsim on the same scenario.
func fig6Predict(mode flowsim.Mode, dUplink, efLink float64, dead map[string]bool) EdgeRates {
	n := flowsim.New()
	n.AddNode("A", flowsim.NodeCaps{Total: 400 * KB})
	if dUplink > 0 {
		n.AddNode("D", flowsim.NodeCaps{Up: dUplink})
	}
	if efLink > 0 {
		n.SetLinkCap("E", "F", efLink)
	}
	var edges [][2]string
	for from, dsts := range fig6Edges {
		if dead[from] {
			continue
		}
		for _, dst := range dsts {
			if !dead[dst] {
				edges = append(edges, [2]string{from, dst})
			}
		}
	}
	n.AddSession(flowsim.Session{Source: "A", Edges: edges})
	res, err := n.Solve(mode)
	if err != nil {
		return nil
	}
	out := make(EdgeRates)
	for e, r := range res.EdgeRates {
		out[e[0]+e[1]] = r
	}
	return out
}

// Fig6 runs the four panels of Fig. 6: convergence under A's per-node
// cap, back-pressure from D's uplink cap, termination of B, termination
// of G — with small buffers throughout.
func Fig6(cfg Fig6Config) ([]Fig6Phase, error) {
	cfg.applyDefaults()
	c, ids, err := fig6Cluster(5)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	var phases []Fig6Phase
	record := func(name string, dUp, ef float64, dead map[string]bool) {
		time.Sleep(cfg.Settle)
		measured, closed := measureStable(c, ids, cfg.Window)
		phases = append(phases, Fig6Phase{
			Name:      name,
			Measured:  measured,
			Predicted: fig6Predict(flowsim.BackPressure, dUp, ef, dead),
			Closed:    closed,
		})
	}

	record("(a) A per-node 400 KBps", 0, 0, nil)

	c.Engines[ids["D"]].SetBandwidthLocal(protocol.SetBandwidth{
		Class: protocol.BandwidthUp, Rate: 30 << 10,
	})
	record("(b) D uplink 30 KBps", 30*KB, 0, nil)

	c.Engines[ids["B"]].Stop()
	delete(c.Engines, ids["B"]) // its frozen meters are not live edges
	record("(c) terminate B", 30*KB, 0, map[string]bool{"B": true})

	c.Engines[ids["G"]].Stop()
	delete(c.Engines, ids["G"])
	record("(d) terminate G", 30*KB, 0, map[string]bool{"B": true, "G": true})
	return phases, nil
}

// Fig7 runs the two panels of Fig. 7: the same topology with very large
// buffers, where bottlenecks stay local within the measurement horizon.
func Fig7(cfg Fig6Config) ([]Fig6Phase, error) {
	cfg.applyDefaults()
	c, ids, err := fig6Cluster(10000)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	c.Engines[ids["D"]].SetBandwidthLocal(protocol.SetBandwidth{
		Class: protocol.BandwidthUp, Rate: 30 << 10,
	})
	var phases []Fig6Phase
	record := func(name string, ef float64) {
		time.Sleep(cfg.Settle)
		measured, closed := measureStable(c, ids, cfg.Window)
		phases = append(phases, Fig6Phase{
			Name:      name,
			Measured:  measured,
			Predicted: fig6Predict(flowsim.Buffered, 30*KB, ef, nil),
			Closed:    closed,
		})
	}
	record("(a) large buffers, D uplink 30 KBps", 0)

	c.Engines[ids["E"]].SetBandwidthLocal(protocol.SetBandwidth{
		Class: protocol.BandwidthLink, Rate: 15 << 10, Peer: ids["F"],
	})
	record("(b) link EF 15 KBps", 15*KB)
	return phases, nil
}

// RenderFig6 formats phases with measured vs predicted columns.
func RenderFig6(title string, phases []Fig6Phase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	var edges []string
	for from, dsts := range fig6Edges {
		for _, dst := range dsts {
			edges = append(edges, from+dst)
		}
	}
	sort.Strings(edges)
	for _, p := range phases {
		fmt.Fprintf(&b, "  %s\n", p.Name)
		for _, e := range edges {
			m, okM := p.Measured[e]
			pr, okP := p.Predicted[e]
			switch {
			case !okM && !okP:
				fmt.Fprintf(&b, "    %s  [closed]\n", e)
			case !okM:
				fmt.Fprintf(&b, "    %s  [closed]      (predicted %.1f KBps)\n", e, pr/KB)
			default:
				fmt.Fprintf(&b, "    %s  %7.1f KBps  (predicted %.1f KBps)\n", e, m/KB, pr/KB)
			}
		}
	}
	return b.String()
}
