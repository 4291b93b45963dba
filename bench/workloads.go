package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/vnet"
)

// Offered rates are constants, never calibrated at run time: an open loop
// whose rate follows the system under test cannot show it slowing down.
// Each sits at roughly a third of what the workload sustains on a 2-core
// host, so that the host's own slow phases do not saturate it.
const (
	bulkRate     = 20000 // msgs/s into chain16_bulk
	smallRate    = 40000 // msgs/s into chain16_small
	treeRate     = 20000 // msgs/s into tree15_paced
	dgramRate    = 10000 // msgs/s into chain8_dgram
	churnClients = 2     // closed-loop clients of link_churn
	churnLeaves  = 64
	genTick      = time.Millisecond // generator schedule granularity
	benchApp     = 1
	dataType     = message.FirstDataType
)

// shape is a workload's topology family.
type shape int

const (
	chainShape shape = iota // node i forwards to node i+1; the last node is the sink
	treeShape               // binary heap layout: node i feeds 2i+1 and 2i+2; leaves are sinks
	hubShape                // node 0 opens and closes a link to each leaf in turn
)

// spec is the fixed definition of one workload.
type spec struct {
	name    string
	shape   shape
	nodes   int
	payload int  // data message payload bytes
	rate    int  // offered msgs/s of the open loop; 0 = link_churn's closed loop
	dgram   bool // data lane on the datagram endpoints
}

var specs = []spec{
	{name: "chain16_bulk", shape: chainShape, nodes: 16, payload: 5120, rate: bulkRate},
	{name: "chain16_small", shape: chainShape, nodes: 16, payload: 64, rate: smallRate},
	{name: "tree15_paced", shape: treeShape, nodes: 15, payload: 1024, rate: treeRate},
	{name: "chain8_dgram", shape: chainShape, nodes: 8, payload: 1024, rate: dgramRate, dgram: true},
	{name: "link_churn", shape: hubShape, nodes: 1 + churnLeaves, payload: 64},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// hasPeak reports whether the workload also has a back-to-back reading:
// the stream chains, driven by the engine's own StartSource in place of
// the generator and throttled only by ring back-pressure (the paper's
// Fig 5 set-up). A datagram lane has no back-pressure to throttle by.
func (s spec) hasPeak() bool { return s.shape == chainShape && !s.dgram }

// parent is the upstream node of i (i > 0).
func (s spec) parent(i int) int {
	switch s.shape {
	case treeShape:
		return (i - 1) / 2
	case hubShape:
		return 0
	default:
		return i - 1
	}
}

// children lists the downstream nodes of i in the data topology.
func (s spec) children(i int) []int {
	switch s.shape {
	case treeShape:
		var c []int
		for _, j := range []int{2*i + 1, 2*i + 2} {
			if j < s.nodes {
				c = append(c, j)
			}
		}
		return c
	case hubShape:
		return nil // links are opened one at a time by the churn clients
	default:
		if i+1 < s.nodes {
			return []int{i + 1}
		}
		return nil
	}
}

func (s spec) isSink(i int) bool {
	if s.shape == hubShape {
		return i > 0
	}
	return len(s.children(i)) == 0
}

func nodeID(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.%d.%d", i/250, i%250+1), 7000)
}

// cluster is one running instance of a workload: engines on a private
// virtual network plus the benchmark-owned generator and sinks.
type cluster struct {
	spec    spec
	net     *vnet.Network
	engines []*engine.Engine
	fwds    []*multicast.Forwarder // interior nodes that receive data (hop counting)
	sinks   []*sink
	gen     *generator // open-loop workloads
	churn   *churner   // link_churn
	tr      *tracer    // nil on untraced runs
	started int64      // nowNs() when build began
}

// build starts every engine of the workload and the load on top of them.
// Engines take only ID, transport, algorithm, the two ring sizes and the
// status interval; everything else stays at the engine default so the
// benchmark measures what ships. With peak set, a stream chain is driven
// back to back by the source node's own StartSource, whose payload bytes
// are unspecified, so its sink checks length and order only.
func build(s spec, seed int64, traced, peak bool) (*cluster, error) {
	c := &cluster{spec: s, net: vnet.New(), started: nowNs()}
	if traced {
		c.tr = newTracer(s)
	}
	fill := newFill(seed, s.payload)
	for i := 0; i < s.nodes; i++ {
		var alg engine.Algorithm
		if s.isSink(i) {
			sk := newSink(s, fill, !peak)
			c.sinks = append(c.sinks, sk)
			alg = sk
		} else {
			f := &multicast.Forwarder{}
			for _, j := range s.children(i) {
				f.DefaultRoutes = append(f.DefaultRoutes, nodeID(j))
			}
			alg = f
			if i > 0 {
				c.fwds = append(c.fwds, f)
			}
		}
		var tp engine.Transport = engine.VNet{Net: c.net}
		if c.tr != nil {
			alg = &tracedAlg{inner: alg, nt: c.tr.nodes[i], all: s.traceAll()}
			tp = &tracedTransport{inner: engine.VNet{Net: c.net}, nt: c.tr.nodes[i]}
		}
		e, err := engine.New(engine.Config{
			ID:             nodeID(i),
			Transport:      tp,
			Algorithm:      alg,
			RecvBuf:        64,
			SendBuf:        64,
			StatusInterval: time.Second,
			DatagramData:   s.dgram,
		})
		if err == nil {
			err = e.Start()
		}
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.engines = append(c.engines, e)
	}
	switch {
	case s.shape == hubShape:
		c.churn = startChurn(c, fill, seed)
	case peak:
		c.engines[0].StartSource(benchApp, 0, s.payload)
	default:
		var dests []message.NodeID
		for _, j := range s.children(0) {
			dests = append(dests, nodeID(j))
		}
		var settled func() int64
		if s.dgram {
			settled = c.sinks[0].settled // a chain has one sink
		}
		c.gen = startGenerator(c.engines[0], dests, s, fill, c.tr, settled)
	}
	return c, nil
}

// stopLoad ends the generator or the churn clients, leaving the engines up
// so in-flight messages can still be delivered and counted.
func (c *cluster) stopLoad() {
	if c.gen != nil {
		c.gen.halt()
	}
	if c.churn != nil {
		c.churn.halt()
	}
}

// stop tears the cluster down and waits for every goroutine it started.
func (c *cluster) stop() {
	c.stopLoad()
	var wg sync.WaitGroup
	for _, e := range c.engines {
		wg.Add(1)
		go func(e *engine.Engine) {
			defer wg.Done()
			e.Stop()
		}(e)
	}
	wg.Wait()
	c.net.Close()
}

// ready reports the set-up time in seconds once the first verified
// delivery has reached every sink (link_churn: once every client has
// completed a cycle), or false while that is still pending.
func (c *cluster) ready() (float64, bool) {
	var last int64
	if c.churn != nil {
		for i := range c.churn.firstDone {
			t := c.churn.firstDone[i].Load()
			if t == 0 {
				return 0, false
			}
			last = max(last, t)
		}
	} else {
		for _, sk := range c.sinks {
			t := sk.firstNs.Load()
			if t == 0 {
				return 0, false
			}
			last = max(last, t)
		}
	}
	return float64(last-c.started) / 1e9, true
}

// awaitReady polls ready until it holds or the timeout passes.
func (c *cluster) awaitReady(timeout time.Duration) (float64, error) {
	deadline := time.Now().Add(timeout)
	for {
		if s, ok := c.ready(); ok {
			return s, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s: no delivery at every sink within %v", c.spec.name, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// counts is a snapshot of the cluster's progress counters.
type counts struct {
	hops    int64 // data messages that entered Process on a non-source node
	msgs    int64 // verified deliveries, all sinks
	bytes   int64 // payload bytes of those deliveries
	offered int64 // messages the generator has injected (open loop) or cycles begun (churn)
	cycles  int64 // completed link cycles (churn)
}

func (c *cluster) counts() counts {
	var n counts
	for _, f := range c.fwds {
		n.hops += f.SeenMessages(benchApp)
	}
	for _, sk := range c.sinks {
		m, b := sk.delivered()
		n.hops += m
		n.msgs += m
		n.bytes += b
	}
	if c.gen != nil {
		n.offered = c.gen.offered.Load()
	}
	if c.churn != nil {
		n.offered = c.churn.begun.Load()
		n.cycles = c.churn.completed.Load()
	}
	return n
}

// fill is the seeded payload content shared by generator and sinks: the
// generator copies body into every stamped message after the 16-byte
// stamp, the sinks check its checksum.
type fill struct {
	body []byte
	crc  uint32
}

// stampLen is the prefix of a stamped payload: 8 bytes due time (ns on the
// benchmark clock), 4 bytes checksum of the body, 4 bytes reserved.
const stampLen = 16

func newFill(seed int64, payload int) fill {
	n := payload - stampLen
	if n < 0 {
		n = 0
	}
	body := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(body)
	return fill{body: body, crc: checksum(body)}
}
