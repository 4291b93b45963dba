// Streaming: a data dissemination session over a node-stress-aware
// multicast tree with asymmetric (DSL-like) last-mile bandwidth, plus
// failure injection — a relay node is killed mid-stream and its children
// transparently rejoin the tree, exactly the fault-tolerance workflow the
// paper describes for iOverlay experiments.
package main

import (
	"fmt"
	"os"
	"time"

	ioverlay "repro"
	"repro/internal/tree"
)

const app = 1

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run() error {
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

	// Ten viewers with asymmetric DSL-like links: generous downlink,
	// narrow uplink — the "last-mile bottleneck" setting of Section 3.3.
	// The source is node 0 with a 300 KBps uplink.
	type member struct {
		id  ioverlay.NodeID
		alg *tree.Tree
		eng *ioverlay.Engine
	}
	var members []*member
	for i := 0; i < 10; i++ {
		id := ioverlay.MustParseID(fmt.Sprintf("10.0.0.%d:7000", i+1))
		up := int64(80+20*i) << 10 // 80–260 KBps uplinks
		if i == 0 {
			up = 300 << 10
		}
		alg := &tree.Tree{
			Variant:    tree.StressAware,
			App:        app,
			LastMile:   up,
			AutoRejoin: true, // rejoin through KnownHosts when a parent dies
		}
		eng, err := ioverlay.NewEngine(ioverlay.Config{
			ID:        id,
			Transport: ioverlay.VirtualTransport(net),
			Algorithm: alg,
			Observers: []ioverlay.NodeID{obs.ID()},
			UpBW:      up,
			DownBW:    1 << 20, // 1 MBps downlink: asymmetric like DSL
		})
		if err != nil {
			return err
		}
		if err := eng.Start(); err != nil {
			return err
		}
		defer eng.Stop()
		members = append(members, &member{id: id, alg: alg, eng: eng})
	}
	if !obs.WaitForNodes(10, 5*time.Second) {
		return fmt.Errorf("bootstrap incomplete")
	}

	// Start the stream at the source and join the viewers. The source
	// floods its identity to the members it knows of, so it is first told
	// of all of them: its own bootstrap reply listed only the nodes that
	// had registered before it.
	obs.PushMembership(members[0].id)
	obs.Deploy(members[0].id, app, 0, 1316) // RTP-ish packet size
	time.Sleep(300 * time.Millisecond)
	for _, m := range members[1:] {
		obs.Join(m.id, app, ioverlay.NodeID{})
		time.Sleep(100 * time.Millisecond)
	}
	time.Sleep(2 * time.Second)

	report := func(tag string) {
		fmt.Printf("--- %s ---\n", tag)
		for _, m := range members[1:] {
			parent := "-"
			if p, ok := m.alg.Parent(); ok {
				parent = p.String()
			}
			fmt.Printf("  %s parent=%-16s received=%6d KB stress=%.2f\n",
				m.id, parent, m.alg.ReceivedBytes()/1024, m.alg.Stress())
		}
	}
	report("tree built, streaming")

	// Kill the busiest relay (most children) and watch the recovery.
	var victim *member
	for _, m := range members[1:] {
		if victim == nil || len(m.alg.Children()) > len(victim.alg.Children()) {
			victim = m
		}
	}
	fmt.Printf("killing relay %s with %d children...\n",
		victim.id, len(victim.alg.Children()))
	victim.eng.Stop()

	time.Sleep(3 * time.Second)
	report("after failure and rejoin")

	// Verify every surviving viewer is still receiving.
	before := make(map[*member]int64)
	for _, m := range members[1:] {
		if m != victim {
			before[m] = m.alg.ReceivedBytes()
		}
	}
	time.Sleep(2 * time.Second)
	stalled := 0
	for m, b := range before {
		if m.alg.ReceivedBytes() == b {
			stalled++
		}
	}
	fmt.Printf("survivors still streaming: %d/%d\n", len(before)-stalled, len(before))
	return nil
}
