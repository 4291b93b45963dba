// Quickstart: boot an observer and three virtualized iOverlay nodes in
// one process, deploy an application source, and watch the observer's
// view of the overlay — the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	ioverlay "repro"
)

// relay forwards data to a fixed next hop and counts what it sees; a node
// without a next hop is a sink. Everything else falls back to the
// iAlgorithm defaults (bootstrap handling, source deployment).
type relay struct {
	ioverlay.Base
	next     ioverlay.NodeID
	received atomic.Int64
}

func (r *relay) Process(m *ioverlay.Msg) ioverlay.Verdict {
	if !m.IsData() {
		return r.Base.Process(m) // default handlers: boot, deploy, ...
	}
	r.received.Add(int64(m.Len()))
	if !r.next.IsZero() {
		r.API.Send(m, r.next) // zero-copy forward
	}
	return ioverlay.Done
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// One in-process virtual network hosts everything.
	net := ioverlay.NewVirtualNetwork()
	defer net.Close()

	obs, err := ioverlay.NewObserver(ioverlay.ObserverConfig{
		ID:        ioverlay.MustParseID("10.255.0.1:9000"),
		Transport: ioverlay.VirtualTransport(net),
	})
	if err != nil {
		return err
	}
	if err := obs.Start(); err != nil {
		return err
	}
	defer obs.Stop()

	// A three-node chain: source -> relay -> sink.
	ids := []ioverlay.NodeID{
		ioverlay.MustParseID("10.0.0.1:7000"),
		ioverlay.MustParseID("10.0.0.2:7000"),
		ioverlay.MustParseID("10.0.0.3:7000"),
	}
	algs := []*relay{
		{next: ids[1]},
		{next: ids[2]},
		{},
	}
	for i, alg := range algs {
		eng, err := ioverlay.NewEngine(ioverlay.Config{
			ID:        ids[i],
			Transport: ioverlay.VirtualTransport(net),
			Algorithm: alg,
			Observers: []ioverlay.NodeID{obs.ID()},
			UpBW:      400 << 10, // emulate a 400 KBps uplink per node
		})
		if err != nil {
			return err
		}
		if err := eng.Start(); err != nil {
			return err
		}
		defer eng.Stop()
	}
	if !obs.WaitForNodes(3, 5*time.Second) {
		return fmt.Errorf("bootstrap incomplete: %v", obs.Alive())
	}
	fmt.Println("3 nodes bootstrapped:", obs.Alive())

	// Deploy a data source on the head of the chain, like the paper's
	// observer does with sDeploy: app 1, back-to-back, 2 KB messages.
	obs.Deploy(ids[0], 1, 0, 2048)

	for i := 0; i < 5; i++ {
		time.Sleep(time.Second)
		fmt.Printf("t=%ds sink received %d KB; observer topology:\n%s",
			i+1, algs[2].received.Load()/1024, obs.RenderTopology())
	}

	// Throttle the source's uplink at runtime and watch rates adapt.
	fmt.Println("throttling source uplink to 100 KBps...")
	obs.SetBandwidth(ids[0], ioverlay.SetBandwidth{
		Class: ioverlay.BandwidthUp, Rate: 100 << 10,
	})
	time.Sleep(3 * time.Second)
	fmt.Printf("after throttle:\n%s", obs.RenderTopology())
	return nil
}
