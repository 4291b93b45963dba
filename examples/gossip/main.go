// Gossip: epidemic dissemination built on the iAlgorithm base class's
// Disseminate utility — the paper's "gossiping behavior in distributed
// systems". A rumor is injected at one node and spreads with probability
// p per known host per round; the demo sweeps p and reports coverage and
// message cost.
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	ioverlay "repro"
	"repro/internal/protocol"
)

// rumor types: the payload is the rumor id; a tick drives rounds.
const (
	typeRumor ioverlay.MsgType = 200
	tickRound                  = 1
)

// gossiper spreads every rumor it knows to its known hosts with
// probability p, once per round, until it has seen no news for a while.
type gossiper struct {
	ioverlay.Base
	p        float64
	infected atomic.Bool
	sent     atomic.Int64
	fresh    bool
}

func (g *gossiper) Attach(api ioverlay.API) {
	g.Base.Attach(api)
	api.After(50*time.Millisecond, tickRound)
}

func (g *gossiper) Process(m *ioverlay.Msg) ioverlay.Verdict {
	switch m.Type() {
	case typeRumor:
		if !g.infected.Load() {
			g.infected.Store(true)
			g.fresh = true
		}
	case protocol.TypeTick:
		if g.infected.Load() && g.fresh {
			rumor := g.API.NewControl(typeRumor, 0, []byte("the rumor"))
			n := g.Disseminate(rumor, g.Known.All(), g.p)
			g.sent.Add(int64(n))
			// Keep gossiping a few rounds after infection, then go quiet.
			if g.Rng.Float64() < 0.2 {
				g.fresh = false
			}
		}
		g.API.After(50*time.Millisecond, tickRound)
	default:
		return g.Base.Process(m)
	}
	return ioverlay.Done
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gossip:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 30
	for _, p := range []float64{0.1, 0.3, 0.7} {
		covered, msgs, err := spread(n, p)
		if err != nil {
			return err
		}
		fmt.Printf("p=%.1f: %2d/%d nodes infected, %4d rumor messages sent\n",
			p, covered, n, msgs)
	}
	fmt.Println("higher p trades message overhead for faster, fuller coverage.")
	return nil
}

func spread(n int, p float64) (covered int, msgs int64, err error) {
	net := ioverlay.NewVirtualNetwork()
	defer net.Close()
	obs, err := ioverlay.NewObserver(ioverlay.ObserverConfig{
		ID:             ioverlay.MustParseID("10.255.0.1:9000"),
		Transport:      ioverlay.VirtualTransport(net),
		BootstrapCount: 6, // each node knows a random handful of peers
	})
	if err != nil {
		return 0, 0, err
	}
	if err := obs.Start(); err != nil {
		return 0, 0, err
	}
	defer obs.Stop()

	algs := make([]*gossiper, n)
	ids := make([]ioverlay.NodeID, n)
	for i := n - 1; i >= 0; i-- {
		ids[i] = ioverlay.MustParseID(fmt.Sprintf("10.0.0.%d:7000", i+1))
		algs[i] = &gossiper{p: p}
		eng, err := ioverlay.NewEngine(ioverlay.Config{
			ID:        ids[i],
			Transport: ioverlay.VirtualTransport(net),
			Algorithm: algs[i],
			Observers: []ioverlay.NodeID{obs.ID()},
		})
		if err != nil {
			return 0, 0, err
		}
		if err := eng.Start(); err != nil {
			return 0, 0, err
		}
		defer eng.Stop()
	}
	if !obs.WaitForNodes(n, 5*time.Second) {
		return 0, 0, fmt.Errorf("bootstrap incomplete")
	}
	for _, id := range ids {
		obs.PushMembership(id)
	}
	time.Sleep(100 * time.Millisecond)

	// Infect node 0 by sending it the rumor via the observer channel.
	obs.Command(ids[0], typeRumor, []byte("the rumor"))
	time.Sleep(3 * time.Second)

	for _, g := range algs {
		if g.infected.Load() {
			covered++
		}
		msgs += g.sent.Load()
	}
	return covered, msgs, nil
}
