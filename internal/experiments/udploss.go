package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/vnet"
)

// UDPLossConfig parameterizes the datagram loss sweep: a short chain of
// virtualized nodes with the data lane on the vnet datagram transport,
// seeded loss injected on the last hop, and a paced source so measured
// loss comes from the faults rather than ring overflow. The sweep
// answers the two questions the loss-tolerant workload class cares
// about: how much payload survives each loss rate, and what the
// datagram plane costs against TCP when the network is clean.
type UDPLossConfig struct {
	// LossRates are the per-packet drop probabilities to sweep
	// (default 0, 0.1%, 1%, 5%).
	LossRates []float64
	// Window bounds each measurement (default 2s).
	Window time.Duration
}

// The sweep's chain is source, relay, tail; the relay→tail hop carries
// the injected loss. Each message is one 1 KB datagram fragment, so
// packet loss maps 1:1 to message loss, and a lossy run paces the source
// at 2 MB/s. Each measurement follows a 300 ms warm-up, on a network
// whose fault source is seeded with 11.
const (
	udpLossNodes   = 3
	udpLossMsgSize = 1 << 10
	udpLossRate    = 2 << 20
	udpLossWarmup  = 300 * time.Millisecond
	udpLossSeed    = 11
)

func (c *UDPLossConfig) applyDefaults() {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0, 0.001, 0.01, 0.05}
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
}

// UDPLossRow is one point of the sweep.
type UDPLossRow struct {
	Loss       float64 // injected per-packet drop probability
	Delivered  float64 // payload fraction surviving the lossy hop
	Throughput float64 // bytes/sec at the chain tail
}

// UDPLossResult is the sweep plus the clean-network baselines: the same
// chain, unpaced, over TCP-style stream links and over the datagram
// plane.
type UDPLossResult struct {
	TCPBaseline float64 // bytes/sec at the tail, stream transport
	UDPBaseline float64 // bytes/sec at the tail, datagram transport
	Rows        []UDPLossRow
}

// UDPLoss runs the datagram loss sweep.
func UDPLoss(cfg UDPLossConfig) (UDPLossResult, error) {
	cfg.applyDefaults()
	var res UDPLossResult
	var err error
	if res.TCPBaseline, err = udpLossBaseline(cfg.Window, false); err != nil {
		return res, err
	}
	if res.UDPBaseline, err = udpLossBaseline(cfg.Window, true); err != nil {
		return res, err
	}
	for _, loss := range cfg.LossRates {
		row, rerr := udpLossOne(cfg.Window, loss)
		if rerr != nil {
			return res, rerr
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// udpLossChain boots the chain and returns the per-node forwarders.
func udpLossChain(c *Cluster, datagram bool) ([]*multicast.Forwarder, error) {
	algs := make([]*multicast.Forwarder, udpLossNodes)
	for i := udpLossNodes - 1; i >= 0; i-- {
		algs[i] = &multicast.Forwarder{}
		if i < udpLossNodes-1 {
			algs[i].DefaultRoutes = []message.NodeID{nodeID(i + 1)}
		}
		if _, err := c.AddNode(nodeID(i), algs[i], func(conf *engine.Config) {
			conf.RecvBuf, conf.SendBuf = 512, 512
			conf.StatusInterval = time.Second
			conf.DatagramData = datagram
		}); err != nil {
			return nil, err
		}
	}
	return algs, nil
}

// udpLossBaseline measures unpaced chain throughput on a clean network.
func udpLossBaseline(window time.Duration, datagram bool) (float64, error) {
	const app = 1
	c, err := NewCluster(false, vnet.WithSeed(udpLossSeed))
	if err != nil {
		return 0, err
	}
	defer c.Stop()
	algs, err := udpLossChain(c, datagram)
	if err != nil {
		return 0, err
	}
	c.Engines[nodeID(0)].StartSource(app, 0, udpLossMsgSize)
	time.Sleep(udpLossWarmup)
	tail := algs[udpLossNodes-1]
	return rateOver(window, func() int64 { return tail.ReceivedBytes(app) }), nil
}

// udpLossOne measures one loss rate: seeded drops on the last hop only,
// so the delivered fraction is the relay-in vs tail-in message ratio
// over the same window (messages are fixed-size single fragments, so
// the message ratio IS the payload ratio) — uncontaminated by the
// clean hops.
func udpLossOne(window time.Duration, loss float64) (UDPLossRow, error) {
	const app = 1
	c, err := NewCluster(false, vnet.WithSeed(udpLossSeed))
	if err != nil {
		return UDPLossRow{}, err
	}
	defer c.Stop()
	algs, err := udpLossChain(c, true)
	if err != nil {
		return UDPLossRow{}, err
	}
	relayAddr := nodeID(udpLossNodes - 2).Addr()
	tailAddr := nodeID(udpLossNodes - 1).Addr()
	c.Net.DgramFaults(relayAddr, tailAddr, loss, 0, 0)

	c.Engines[nodeID(0)].StartSource(app, udpLossRate, udpLossMsgSize)
	time.Sleep(udpLossWarmup)
	relay := algs[udpLossNodes-2]
	tail := algs[udpLossNodes-1]
	r0, t0 := relay.SeenMessages(app), tail.SeenMessages(app)
	b0 := tail.ReceivedBytes(app)
	time.Sleep(window)
	rd := relay.SeenMessages(app) - r0
	td := tail.SeenMessages(app) - t0
	bd := tail.ReceivedBytes(app) - b0
	row := UDPLossRow{Loss: loss, Throughput: float64(bd) / window.Seconds()}
	if rd > 0 {
		row.Delivered = float64(td) / float64(rd)
	}
	return row, nil
}

// RenderUDPLoss formats the sweep for the report.
func RenderUDPLoss(res UDPLossResult) string {
	var b strings.Builder
	b.WriteString("UDP loss sweep: chain delivery over the datagram data plane\n")
	fmt.Fprintf(&b, "baseline (0%% loss, unpaced): tcp %.2f MBps, udp %.2f MBps (udp/tcp %.2f)\n",
		res.TCPBaseline/(1024*1024), res.UDPBaseline/(1024*1024),
		res.UDPBaseline/res.TCPBaseline)
	b.WriteString(" loss%  delivered%  tail throughput (KBps)\n")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%6.2f  %10.2f  %22.1f\n",
			r.Loss*100, r.Delivered*100, r.Throughput/KB)
	}
	return b.String()
}
