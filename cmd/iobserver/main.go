// Command iobserver runs the iOverlay observer: the centralized
// bootstrap, monitoring and control facility. It is the headless
// replacement for the paper's Windows GUI: the live topology is printed
// periodically and traces are logged to stdout.
//
// Usage:
//
//	iobserver -listen 10.0.0.1:9000 [-peers 10.0.0.2:9000,10.0.0.3:9000] \
//	          [-bootstrap 8] [-topology 5s]
//
// Listing peers federates this observer with the others: registration
// tables anti-entropy-sync across the tier, so nodes may register with
// any member and every member serves bootstrap from the merged view.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ioverlay "repro"
	"repro/internal/admission"
	"repro/internal/debughttp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iobserver:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:9000", "observer listen address (ip:port)")
	bootstrap := flag.Int("bootstrap", 8, "nodes returned per bootstrap request")
	peersStr := flag.String("peers", "", "comma-separated peer observer addresses forming a federated tier")
	topoEvery := flag.Duration("topology", 5*time.Second, "topology print interval (0 disables)")
	var gate admission.Config
	admission.Flags(flag.CommandLine, &gate)
	debugAddr := flag.String("debug", "", "serve expvar/pprof debug endpoints plus /debug/timeline on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	id, err := ioverlay.ParseID(*listen)
	if err != nil {
		return err
	}
	var peers []ioverlay.NodeID
	if *peersStr != "" {
		for _, part := range strings.Split(*peersStr, ",") {
			p, err := ioverlay.ParseID(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("-peers: %w", err)
			}
			peers = append(peers, p)
		}
	}
	obs, err := ioverlay.NewObserver(ioverlay.ObserverConfig{
		ID:             id,
		Transport:      ioverlay.TCPTransport(),
		BootstrapCount: *bootstrap,
		TraceWriter:    os.Stdout,
		Peers:          peers,
		Admission:      gate,
	})
	if err != nil {
		return err
	}
	if err := obs.Start(); err != nil {
		return err
	}
	defer obs.Stop()
	fmt.Printf("observer listening on %s\n", id)

	if *debugAddr != "" {
		debughttp.Publish("ioverlay.alive", func() any { return obs.Alive() })
		l, err := debughttp.Serve(*debugAddr, map[string]http.Handler{
			"/debug/timeline": debughttp.Text(obs.RenderTimeline),
			"/debug/timeline.json": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				raw, err := obs.TimelineJSON()
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(raw)
			}),
			"/debug/hists":    debughttp.Text(obs.RenderHists),
			"/debug/topology": debughttp.Text(obs.RenderTopology),
		})
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer l.Close()
		fmt.Printf("debug endpoints on http://%s/debug/\n", l.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *topoEvery <= 0 {
		<-stop
		return nil
	}
	ticker := time.NewTicker(*topoEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			alive := obs.Alive()
			fmt.Printf("--- %d alive nodes ---\n%s", len(alive), obs.RenderTopology())
		case <-stop:
			return nil
		}
	}
}
