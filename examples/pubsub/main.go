// Pubsub: content-based networking over iOverlay (the application family
// Section 3.1 of the paper highlights). Stock-quote events are published
// into a 7-node overlay; subscribers advertise predicates ("GOOG above
// 100", "any symbol starting with A") and the routers deliver each event
// to exactly the matching subscribers, forwarding along reverse paths set
// up by the advertisement flood.
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	ioverlay "repro"
	"repro/internal/contentnet"
	"repro/internal/engine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pubsub:", err)
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

	const n = 7
	routers := make([]*contentnet.Router, n)
	engines := make([]*ioverlay.Engine, n)
	ids := make([]ioverlay.NodeID, n)
	var deliveries [2]atomic.Int64
	for i := n - 1; i >= 0; i-- {
		ids[i] = ioverlay.MustParseID(fmt.Sprintf("10.0.0.%d:7000", i+1))
		routers[i] = &contentnet.Router{}
		eng, err := ioverlay.NewEngine(ioverlay.Config{
			ID:        ids[i],
			Transport: ioverlay.VirtualTransport(net),
			Algorithm: routers[i],
			Observers: []ioverlay.NodeID{obs.ID()},
		})
		if err != nil {
			return err
		}
		if err := eng.Start(); err != nil {
			return err
		}
		defer eng.Stop()
		engines[i] = eng
	}
	if !obs.WaitForNodes(n, 5*time.Second) {
		return fmt.Errorf("bootstrap incomplete")
	}
	for _, id := range ids {
		obs.PushMembership(id)
	}
	time.Sleep(100 * time.Millisecond)

	// Subscriber 1 (node 1): GOOG above 100.
	routers[0].OnDeliver = func(e contentnet.Event) {
		deliveries[0].Add(1)
		price, _ := e.Attrs.Get("price")
		fmt.Printf("  [node1] GOOG>100: price=%d (%s)\n", price.Int, e.Body)
	}
	engines[0].Do(func(engine.API) {
		routers[0].Subscribe(1, contentnet.Predicate{Constraints: []contentnet.Constraint{
			{Attr: "symbol", Op: contentnet.OpEq, IsStr: true, Str: "GOOG"},
			{Attr: "price", Op: contentnet.OpGt, Int: 100},
		}})
	})
	// Subscriber 2 (node 7): anything whose symbol starts with "A".
	routers[6].OnDeliver = func(e contentnet.Event) {
		deliveries[1].Add(1)
		sym, _ := e.Attrs.Get("symbol")
		fmt.Printf("  [node7] A*: symbol=%s (%s)\n", sym.Str, e.Body)
	}
	engines[6].Do(func(engine.API) {
		routers[6].Subscribe(1, contentnet.Predicate{Constraints: []contentnet.Constraint{
			{Attr: "symbol", Op: contentnet.OpPrefix, IsStr: true, Str: "A"},
		}})
	})
	time.Sleep(500 * time.Millisecond) // advertisements flood

	// Publisher (node 4) emits a quote stream.
	quotes := []struct {
		symbol string
		price  int64
	}{
		{"GOOG", 95}, {"GOOG", 140}, {"AAPL", 80}, {"MSFT", 60},
		{"AMZN", 120}, {"GOOG", 210}, {"IBM", 55}, {"ADBE", 90},
	}
	fmt.Println("publishing quotes from node 4:")
	for _, q := range quotes {
		q := q
		engines[3].Do(func(engine.API) {
			routers[3].Publish(contentnet.Attrs{
				contentnet.StrAttr("symbol", q.symbol),
				contentnet.IntAttr("price", q.price),
			}, []byte(fmt.Sprintf("%s@%d", q.symbol, q.price)))
		})
	}
	time.Sleep(2 * time.Second)
	fmt.Printf("node1 received %d events (want 2: GOOG@140, GOOG@210)\n", deliveries[0].Load())
	fmt.Printf("node7 received %d events (want 3: AAPL, AMZN, ADBE)\n", deliveries[1].Load())
	return nil
}
