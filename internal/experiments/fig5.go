package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
)

// Fig5Config parameterizes the raw engine performance experiment: a chain
// of virtualized nodes on one machine with a back-to-back source at one
// end, as in Section 2.4 / Fig. 5 of the paper, sending the paper's
// 5 KB messages.
type Fig5Config struct {
	// Sizes are the chain lengths; defaults to the paper's 2–32 sweep.
	Sizes []int
	// Warmup and Window bound the measurement.
	Warmup, Window time.Duration
	// BatchSize overrides engine.Config.BatchSize (0 = engine default;
	// 1 disables batching — benches use that for before/after curves).
	BatchSize int
}

func (c *Fig5Config) applyDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 3, 4, 5, 6, 8, 12, 16, 32}
	}
	if c.Warmup <= 0 {
		c.Warmup = 300 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
}

// Fig5Row is one point of Fig. 5.
type Fig5Row struct {
	Nodes    int
	EndToEnd float64 // bytes/sec at the chain tail
	Total    float64 // end-to-end × links: bytes switched or in transit
}

// Fig5 measures raw message-switching performance over chains of
// virtualized nodes.
func Fig5(cfg Fig5Config) ([]Fig5Row, error) {
	cfg.applyDefaults()
	rows := make([]Fig5Row, 0, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		r, err := fig5One(n, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func fig5One(n int, cfg Fig5Config) (Fig5Row, error) {
	const app = 1
	c, err := NewCluster(false)
	if err != nil {
		return Fig5Row{}, err
	}
	defer c.Stop()

	algs := make([]*multicast.Forwarder, n)
	for i := n - 1; i >= 0; i-- {
		algs[i] = &multicast.Forwarder{}
		if i < n-1 {
			algs[i].DefaultRoutes = []message.NodeID{nodeID(i + 1)}
		}
		if _, err := c.AddNode(nodeID(i), algs[i], func(conf *engine.Config) {
			conf.RecvBuf, conf.SendBuf = 64, 64
			conf.StatusInterval = time.Second
			conf.BatchSize = cfg.BatchSize
		}); err != nil {
			return Fig5Row{}, err
		}
	}
	c.Engines[nodeID(0)].StartSource(app, 0, 5<<10)
	time.Sleep(cfg.Warmup)
	tail := algs[n-1]
	endToEnd := rateOver(cfg.Window, func() int64 { return tail.ReceivedBytes(app) })
	return Fig5Row{
		Nodes:    n,
		EndToEnd: endToEnd,
		Total:    endToEnd * float64(n-1),
	}, nil
}

// RenderFig5 formats the rows like the paper's figure annotations.
func RenderFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Fig 5: raw engine performance (chain of virtualized nodes)\n")
	b.WriteString("nodes  end-to-end (MBps)  total bandwidth (MBps)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d  %17.2f  %22.2f\n",
			r.Nodes, r.EndToEnd/(1024*1024), r.Total/(1024*1024))
	}
	return b.String()
}
