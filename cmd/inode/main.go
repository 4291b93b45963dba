// Command inode runs one iOverlay node over real TCP: an engine plus a
// selected algorithm, bootstrapped from an observer (or proxy). Several
// virtualized nodes may be run per machine by launching inode multiple
// times with different ports, exactly as the paper deploys dozens of
// iOverlay nodes per physical PlanetLab host.
//
// Usage:
//
//	inode -id 10.0.0.5:7000 -observer 10.0.0.1:9000,10.0.0.2:9000 -alg forward \
//	      [-routes 10.0.0.6:7000,10.0.0.7:7000] [-up 200KB] [-down 0] [-total 0]
//
// Listing several observers makes the node register with the first and
// fail over down the list when its observer link dies.
//
// Algorithms:
//
//	forward        static forwarder: data is copied to every -routes node
//	tree-unicast   dissemination tree, all-unicast construction
//	tree-random    dissemination tree, randomized construction
//	tree-ns        dissemination tree, node-stress-aware construction
//	fed-sflow      service federation, sFlow instance selection
//	fed-fixed      service federation, fixed (max-capacity) selection
//	fed-random     service federation, random selection
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	ioverlay "repro"
	"repro/internal/admission"
	"repro/internal/debughttp"
	"repro/internal/federation"
	"repro/internal/multicast"
	"repro/internal/tree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inode:", err)
		os.Exit(1)
	}
}

// parseRate accepts "0", "400KB", "1MB", or raw bytes-per-second.
func parseRate(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "MB"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "KB")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q: %w", s, err)
	}
	return v * mult, nil
}

// dataLane puts cfg's data lane on the named transport. Only datagrams
// have a size cap, so an -mtu without -transport udp is a mistake, not a
// no-op.
func dataLane(cfg *ioverlay.Config, transport string, mtu int) error {
	switch transport {
	case "tcp":
		if mtu != 0 {
			return fmt.Errorf("-mtu %d needs -transport udp: -transport tcp sends no datagrams", mtu)
		}
	case "udp":
		cfg.DatagramData = true
		cfg.DatagramMTU = mtu
	default:
		return fmt.Errorf("unknown transport %q (want tcp or udp)", transport)
	}
	return nil
}

func run() error {
	idStr := flag.String("id", "127.0.0.1:7000", "node identity and listen address (ip:port)")
	obsStr := flag.String("observer", "", "observer or proxy address (ip:port); a comma-separated list enables failover in order; empty runs standalone")
	algName := flag.String("alg", "forward", "algorithm: forward|tree-unicast|tree-random|tree-ns|fed-sflow|fed-fixed|fed-random")
	routesStr := flag.String("routes", "", "comma-separated downstream nodes for -alg forward")
	app := flag.Uint("app", 1, "application/session identifier for tree algorithms")
	upStr := flag.String("up", "0", "emulated uplink bandwidth (e.g. 200KB; 0 = unlimited)")
	downStr := flag.String("down", "0", "emulated downlink bandwidth")
	totalStr := flag.String("total", "0", "emulated total bandwidth")
	lastMileStr := flag.String("lastmile", "100KB", "last-mile bandwidth for node-stress computation")
	bufMsgs := flag.Int("buffers", 64, "receiver/sender buffer capacity in messages")
	var gate admission.Config
	admission.Flags(flag.CommandLine, &gate)
	transport := flag.String("transport", "tcp", "data lane transport: tcp (reliable streams) or udp (datagrams for data; control stays on TCP)")
	mtu := flag.Int("mtu", 0, "outgoing datagram size cap in bytes for -transport udp (0 = default 1400)")
	debugAddr := flag.String("debug", "", "serve expvar/pprof debug endpoints on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	id, err := ioverlay.ParseID(*idStr)
	if err != nil {
		return err
	}
	up, err := parseRate(*upStr)
	if err != nil {
		return err
	}
	down, err := parseRate(*downStr)
	if err != nil {
		return err
	}
	total, err := parseRate(*totalStr)
	if err != nil {
		return err
	}
	lastMile, err := parseRate(*lastMileStr)
	if err != nil {
		return err
	}

	var alg ioverlay.Algorithm
	switch *algName {
	case "forward":
		f := &multicast.Forwarder{}
		if *routesStr != "" {
			for _, r := range strings.Split(*routesStr, ",") {
				dest, err := ioverlay.ParseID(strings.TrimSpace(r))
				if err != nil {
					return fmt.Errorf("-routes: %w", err)
				}
				f.DefaultRoutes = append(f.DefaultRoutes, dest)
			}
		}
		alg = f
	case "tree-unicast", "tree-random", "tree-ns":
		variant := map[string]tree.Variant{
			"tree-unicast": tree.Unicast,
			"tree-random":  tree.Random,
			"tree-ns":      tree.StressAware,
		}[*algName]
		alg = &tree.Tree{
			Variant:    variant,
			App:        uint32(*app),
			LastMile:   lastMile,
			AutoRejoin: true,
		}
	case "fed-sflow", "fed-fixed", "fed-random":
		policy := map[string]federation.Selection{
			"fed-sflow":  federation.SFlow,
			"fed-fixed":  federation.Fixed,
			"fed-random": federation.RandomSel,
		}[*algName]
		alg = &federation.Node{Policy: policy}
	default:
		return fmt.Errorf("unknown algorithm %q", *algName)
	}

	cfg := ioverlay.Config{
		ID:        id,
		Transport: ioverlay.TCPTransport(),
		Algorithm: alg,
		TotalBW:   total,
		UpBW:      up,
		DownBW:    down,
		RecvBuf:   *bufMsgs,
		SendBuf:   *bufMsgs,
		Admission: gate,
	}
	if err := dataLane(&cfg, *transport, *mtu); err != nil {
		return err
	}
	if *obsStr != "" {
		for _, part := range strings.Split(*obsStr, ",") {
			obsID, err := ioverlay.ParseID(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("-observer: %w", err)
			}
			cfg.Observers = append(cfg.Observers, obsID)
		}
	}
	eng, err := ioverlay.NewEngine(cfg)
	if err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Stop()
	fmt.Printf("node %s running %s (observer %q)\n", id, *algName, *obsStr)

	if *debugAddr != "" {
		debughttp.Publish("ioverlay.counters", func() any { return eng.Counters() })
		debughttp.Publish("ioverlay.events", func() any { return eng.Events() })
		l, err := debughttp.Serve(*debugAddr, nil)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer l.Close()
		fmt.Printf("debug endpoints on http://%s/debug/\n", l.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	return nil
}
