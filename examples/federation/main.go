// Federation: provision a complex service across a 12-node service
// overlay network (the paper's Section 3.4). Nodes host primitive
// services; a DAG requirement is federated with the sFlow algorithm,
// which probes candidate instances for residual bandwidth and picks the
// most bandwidth-efficient one; live data then flows through the
// federated topology.
package main

import (
	"fmt"
	"os"
	"time"

	ioverlay "repro"
	"repro/internal/federation"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
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

	// Twelve nodes; service types 1..4, three instances each, with
	// different nominal capacities.
	const n = 12
	ids := make([]ioverlay.NodeID, n)
	algs := make([]*federation.Node, n)
	for i := 0; i < n; i++ {
		ids[i] = ioverlay.MustParseID(fmt.Sprintf("10.0.0.%d:7000", i+1))
	}
	for i := n - 1; i >= 0; i-- {
		algs[i] = &federation.Node{Policy: federation.SFlow}
		eng, err := ioverlay.NewEngine(ioverlay.Config{
			ID:        ids[i],
			Transport: ioverlay.VirtualTransport(net),
			Algorithm: algs[i],
			Observers: []ioverlay.NodeID{obs.ID()},
		})
		if err != nil {
			return err
		}
		if err := eng.Start(); err != nil {
			return err
		}
		defer eng.Stop()
	}
	if !obs.WaitForNodes(n, 5*time.Second) {
		return fmt.Errorf("bootstrap incomplete")
	}
	for _, id := range ids {
		obs.PushMembership(id)
	}
	time.Sleep(100 * time.Millisecond)

	// sAssign: node i hosts service type i%4+1 with capacity 50..160 KBps.
	fmt.Println("assigning services:")
	for i, id := range ids {
		typ := uint32(i%4 + 1)
		capacity := int64(50+10*i) << 10
		obs.Command(id, federation.TypeAssign,
			federation.Assign{ServiceType: typ, Capacity: capacity}.Encode())
		fmt.Printf("  %s hosts service %d (%d KBps)\n", id, typ, capacity>>10)
	}
	time.Sleep(500 * time.Millisecond) // sAware dissemination

	// Federate a diamond requirement: 1 -> {2,3} -> 4.
	req := federation.Requirement{
		Types:     []uint32{1, 2, 3, 4},
		Edges:     [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		Bandwidth: 64 << 10,
	}
	const session = 42
	f := federation.Federate{SessionID: session, Req: req}
	obs.Command(ids[0], federation.TypeFederate, f.Encode())

	var assigned []ioverlay.NodeID
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a, ok := algs[0].Completed(session); ok {
			assigned = a
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if assigned == nil {
		return fmt.Errorf("federation did not complete")
	}
	fmt.Println("federated complex service:")
	for i, node := range assigned {
		fmt.Printf("  requirement vertex %d (service %d) -> %s\n", i, req.Types[i], node)
	}

	// Deploy live data through the federated service and measure the sink.
	obs.Deploy(assigned[0], session, 100<<10, 1024)
	var sink *federation.Node
	for i, id := range ids {
		if id == assigned[len(assigned)-1] {
			sink = algs[i]
		}
	}
	time.Sleep(500 * time.Millisecond)
	before := sink.ReceivedBytes(session)
	time.Sleep(2 * time.Second)
	rate := float64(sink.ReceivedBytes(session)-before) / 2
	fmt.Printf("sink receiving %.1f KBps through the federated topology\n", rate/1024)

	// Show the paper's overhead observation: sFederate << sAware.
	var aware, fed int64
	for _, alg := range algs {
		sent := alg.OverheadSent()
		aware += sent[federation.TypeAware]
		fed += sent[federation.TypeFederate] + sent[federation.TypeFederateAck] +
			sent[federation.TypeLoadProbe] + sent[federation.TypeLoadReply]
	}
	fmt.Printf("control overhead: sAware %d bytes, sFederate %d bytes\n", aware, fed)
	return nil
}
