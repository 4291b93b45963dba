// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness boots virtualized iOverlay nodes over
// the in-process virtual network, drives the same workload the paper
// describes (with compressed schedules where the original ran for tens of
// minutes on PlanetLab), and returns the rows/series the paper reports.
// The cmd/ibench binary prints them; bench_test.go regenerates them under
// `go test -bench`.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/simnet"
	"repro/internal/vnet"
)

// KB is the paper's throughput unit (KBytes per second).
const KB = 1024.0

// ObserverID is the conventional observer address in harness clusters.
var ObserverID = message.MakeID("10.255.0.1", 9000)

// Cluster is a virtual deployment: one vnet, an optional observer, and a
// set of engines.
type Cluster struct {
	Net *vnet.Network
	Obs *observer.Observer
	// Observers is every observer started on the cluster, Obs first; only
	// a federated tier has more than one.
	Observers []*observer.Observer
	Engines   map[message.NodeID]*engine.Engine
	started   []*engine.Engine // every engine ever started, in boot order
}

// LatencyFromTestbed builds a vnet latency function from a synthetic
// testbed's site coordinates, so virtual links experience wide-area
// propagation delay.
func LatencyFromTestbed(tb *simnet.Testbed) vnet.Option {
	byAddr := make(map[string]simnet.Node, len(tb.Nodes))
	for _, n := range tb.Nodes {
		byAddr[n.ID.Addr()] = n
	}
	return vnet.WithLatencyFunc(func(a, b string) time.Duration {
		na, okA := byAddr[a]
		nb, okB := byAddr[b]
		if !okA || !okB {
			return 0 // observer and other off-testbed endpoints
		}
		return simnet.Latency(na, nb)
	})
}

// NewCluster builds an empty cluster; withObserver adds a started
// observer at ObserverID. Options tune the virtual network (for example
// shallow pipes when fast back-pressure convergence matters).
func NewCluster(withObserver bool, opts ...vnet.Option) (*Cluster, error) {
	c := &Cluster{
		Net:     vnet.New(opts...),
		Engines: make(map[message.NodeID]*engine.Engine),
	}
	if withObserver {
		if err := c.startObserver(observer.Config{ID: ObserverID, BootstrapCount: 16, Seed: 1}); err != nil {
			c.Net.Close()
			return nil, err
		}
	}
	return c, nil
}

// startObserver starts an observer on the cluster's network at the
// harness request pace; the first one started becomes Obs.
func (c *Cluster) startObserver(cfg observer.Config) error {
	cfg.Transport = engine.VNet{Net: c.Net}
	cfg.RequestInterval = 200 * time.Millisecond
	obs, err := observer.New(cfg)
	if err != nil {
		return err
	}
	if err := obs.Start(); err != nil {
		return err
	}
	if c.Obs == nil {
		c.Obs = obs
	}
	c.Observers = append(c.Observers, obs)
	return nil
}

// AddNode boots an engine in the cluster.
func (c *Cluster) AddNode(id message.NodeID, alg engine.Algorithm, mut ...func(*engine.Config)) (*engine.Engine, error) {
	cfg := engine.Config{
		ID:             id,
		Transport:      engine.VNet{Net: c.Net},
		Algorithm:      alg,
		StatusInterval: 100 * time.Millisecond,
	}
	if c.Obs != nil {
		cfg.Observers = []message.NodeID{ObserverID}
	}
	for _, m := range mut {
		m(&cfg)
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: new %s: %w", id, err)
	}
	if err := e.Start(); err != nil {
		return nil, fmt.Errorf("cluster: start %s: %w", id, err)
	}
	c.Engines[id] = e
	c.started = append(c.started, e)
	return e, nil
}

// Stop tears the whole cluster down.
func (c *Cluster) Stop() {
	for i := len(c.started) - 1; i >= 0; i-- {
		c.started[i].Stop()
	}
	for _, o := range c.Observers {
		o.Stop()
	}
	c.Net.Close()
}

// nodeID builds the conventional harness address for node index i.
func nodeID(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.%d.%d", i/250, i%250+1), 7000)
}

// rateOver measures a counter's rate over a window.
func rateOver(window time.Duration, read func() int64) float64 {
	before := read()
	time.Sleep(window)
	return float64(read()-before) / window.Seconds()
}
