// Network coding: the paper's Fig. 8 case study as a runnable demo. A
// source splits a session into two substreams through helper nodes; node
// D codes a+b in GF(2^8) using the engine's hold mechanism; receivers F
// and G decode both substreams from one plain and one coded stream,
// reaching the full source rate despite D's uplink bottleneck.
package main

import (
	"fmt"
	"os"
	"time"

	ioverlay "repro"
	"repro/internal/coding"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "networkcoding:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, useCoding := range []bool{false, true} {
		rates, err := runSession(useCoding)
		if err != nil {
			return err
		}
		mode := "plain forwarding"
		if useCoding {
			mode = "network coding (a+b at D)"
		}
		fmt.Printf("%s:\n", mode)
		for _, n := range []string{"D", "E", "F", "G"} {
			fmt.Printf("  %s effective throughput: %6.1f KBps\n", n, rates[n]/1024)
		}
	}
	fmt.Println("coding lifts F and G to the full 400 KBps source rate,")
	fmt.Println("at the cost of E becoming a helper node (the paper's trade-off).")
	return nil
}

func runSession(useCoding bool) (map[string]float64, error) {
	net := ioverlay.NewVirtualNetwork()
	defer net.Close()

	names := []string{"A", "B", "C", "D", "E", "F", "G"}
	ids := make(map[string]ioverlay.NodeID)
	for i, n := range names {
		ids[n] = ioverlay.MustParseID(fmt.Sprintf("10.0.0.%d:7000", i+1))
	}
	algs := map[string]*coding.Node{
		"A": {SplitDests: [][]ioverlay.NodeID{{ids["B"]}, {ids["C"]}}},
		"B": {Forward: map[int][]ioverlay.NodeID{0: {ids["D"], ids["F"]}}},
		"C": {Forward: map[int][]ioverlay.NodeID{1: {ids["D"], ids["G"]}}},
		"F": {DecodeK: 2},
		"G": {DecodeK: 2},
	}
	if useCoding {
		algs["D"] = &coding.Node{
			Code:    &coding.CodeSpec{K: 2, Inputs: []int{0, 1}, Dests: []ioverlay.NodeID{ids["E"]}},
			DecodeK: 2,
		}
		algs["E"] = &coding.Node{ForwardCoded: []ioverlay.NodeID{ids["F"], ids["G"]}}
	} else {
		algs["D"] = &coding.Node{
			Forward: map[int][]ioverlay.NodeID{0: {ids["E"]}, 1: {ids["E"]}},
			DecodeK: 2,
		}
		algs["E"] = &coding.Node{
			Forward: map[int][]ioverlay.NodeID{0: {ids["G"]}, 1: {ids["F"]}},
			DecodeK: 2,
		}
	}

	var engines []*ioverlay.Engine
	for i := len(names) - 1; i >= 0; i-- {
		name := names[i]
		cfg := ioverlay.Config{
			ID:        ids[name],
			Transport: ioverlay.VirtualTransport(net),
			Algorithm: algs[name],
			RecvBuf:   2000, SendBuf: 2000,
		}
		switch name {
		case "A":
			cfg.TotalBW = 400 << 10
		case "D":
			cfg.UpBW = 200 << 10 // the bottleneck coding routes around
		}
		eng, err := ioverlay.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.Start(); err != nil {
			return nil, err
		}
		defer eng.Stop()
		engines = append(engines, eng)
	}
	engines[len(engines)-1].StartSource(1, 0, 1024) // node A

	time.Sleep(2 * time.Second) // settle
	const window = 2 * time.Second
	before := make(map[string]int64)
	for n, alg := range algs {
		before[n] = alg.EffectiveBytes()
	}
	time.Sleep(window)
	rates := make(map[string]float64)
	for n, alg := range algs {
		rates[n] = float64(alg.EffectiveBytes()-before[n]) / window.Seconds()
	}
	return rates, nil
}
