package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/coding"
	"repro/internal/engine"
	"repro/internal/message"
)

// Fig8Config parameterizes the network-coding case study (Fig. 8): the
// seven-node topology with A splitting the session into streams a and b,
// A capped at 400 KBps total, D's uplink capped at 200 KBps, A sending
// 1 KB messages.
type Fig8Config struct {
	Settle time.Duration
	Window time.Duration
}

func (c *Fig8Config) applyDefaults() {
	if c.Settle <= 0 {
		c.Settle = 2 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
}

// Fig8Row is the effective (decoded) throughput at one receiver.
type Fig8Row struct {
	Node      string
	Effective float64 // bytes/sec of decoded application data
}

// Fig8Result holds both panels.
type Fig8Result struct {
	WithoutCoding []Fig8Row // panel (a)
	WithCoding    []Fig8Row // panel (b)
}

// Fig8 runs both panels of the network-coding case study and reports the
// effective throughput at D, E, F and G.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	cfg.applyDefaults()
	without, err := fig8Run(cfg, false)
	if err != nil {
		return nil, err
	}
	with, err := fig8Run(cfg, true)
	if err != nil {
		return nil, err
	}
	return &Fig8Result{WithoutCoding: without, WithCoding: with}, nil
}

func fig8Run(cfg Fig8Config, useCoding bool) ([]Fig8Row, error) {
	const app = 1
	c, err := NewCluster(false)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	ids := make(map[string]message.NodeID)
	for i, name := range fig6Names {
		ids[name] = nodeID(i)
	}
	algs := map[string]*coding.Node{
		"A": {SplitDests: [][]message.NodeID{{ids["B"]}, {ids["C"]}}},
		"B": {Forward: map[int][]message.NodeID{0: {ids["D"], ids["F"]}}},
		"C": {Forward: map[int][]message.NodeID{1: {ids["D"], ids["G"]}}},
	}
	if useCoding {
		// Panel (b): D codes a+b toward E; E relays the coded stream; F
		// and G decode from one plain and one coded stream.
		algs["D"] = &coding.Node{
			Code:    &coding.CodeSpec{K: 2, Inputs: []int{0, 1}, Dests: []message.NodeID{ids["E"]}},
			DecodeK: 2,
		}
		algs["E"] = &coding.Node{ForwardCoded: []message.NodeID{ids["F"], ids["G"]}, DecodeK: 0}
	} else {
		// Panel (a): plain forwarding; D relays both streams to E, which
		// crosses them over to the receivers missing them.
		algs["D"] = &coding.Node{
			Forward: map[int][]message.NodeID{0: {ids["E"]}, 1: {ids["E"]}},
			DecodeK: 2,
		}
		algs["E"] = &coding.Node{
			Forward: map[int][]message.NodeID{0: {ids["G"]}, 1: {ids["F"]}},
			DecodeK: 2,
		}
	}
	algs["F"] = &coding.Node{DecodeK: 2}
	algs["G"] = &coding.Node{DecodeK: 2}

	for i := len(fig6Names) - 1; i >= 0; i-- {
		name := fig6Names[i]
		_, err := c.AddNode(ids[name], algs[name], func(conf *engine.Config) {
			conf.RecvBuf, conf.SendBuf = 2000, 2000
			switch name {
			case "A":
				conf.TotalBW = 400 << 10
			case "D":
				conf.UpBW = 200 << 10
			}
		})
		if err != nil {
			return nil, err
		}
	}
	c.Engines[ids["A"]].StartSource(app, 0, 1<<10)
	time.Sleep(cfg.Settle)

	rows := make([]Fig8Row, 0, 4)
	names := []string{"D", "E", "F", "G"}
	befores := make([]int64, len(names))
	for i, n := range names {
		befores[i] = algs[n].EffectiveBytes()
	}
	time.Sleep(cfg.Window)
	for i, n := range names {
		rate := float64(algs[n].EffectiveBytes()-befores[i]) / cfg.Window.Seconds()
		rows = append(rows, Fig8Row{Node: n, Effective: rate})
	}
	return rows, nil
}

// RenderFig8 formats both panels side by side.
func RenderFig8(r *Fig8Result) string {
	var b strings.Builder
	b.WriteString("Fig 8: network coding case study — effective throughput (KBps)\n")
	b.WriteString("node   without coding   with coding (a+b at D)\n")
	for i := range r.WithoutCoding {
		fmt.Fprintf(&b, "  %s    %14.1f   %22.1f\n",
			r.WithoutCoding[i].Node,
			r.WithoutCoding[i].Effective/KB,
			r.WithCoding[i].Effective/KB)
	}
	return b.String()
}
