package engine_test

import (
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/vnet"
)

// TestLinkCycleAllocations is the tripwire on what a link costs to build
// and tear down — the benchmark's link_churn cycle in miniature. A hub
// opens a link to one of 8 leaves by sending it one 64-byte message, waits
// for the leaf to see it, closes the link and checks the leaf is gone from
// Downstreams; 600 cycles, the first 100 a warm-up. Both ends of every
// cycle run in the reading: dial, hello, Welcome, the two goroutines and
// rings of the link, the notifications, the teardown. It is read with the
// process-wide heap counters, so the transport's own objects and this
// test's two Do closures per cycle are in it too.
//
// Readings on a 2-core x86-64 host over 25 runs, objects and bytes per
// cycle: vnet 27.6–32.9 and 15.9–17.3 KiB, loopback TCP 52–58 and 50–55
// KiB. The bounds are the highest reading plus a quarter for objects and
// a tenth for bytes, rounded up. While a link's accepting goroutine
// started another for the receiver and posted the LinkUp as a closure,
// vnet read 29.5–35.0 objects. While a vnet pipe allocated its whole
// 64 KiB buffer when dialled, vnet read 35–41 objects and 159–167 KiB.
// Before a link's
// rings, meters, limiter and shapers moved inside its sender and receiver,
// and its write buffer was built on first use, the same test read 74–75
// objects and 203 KiB on vnet, and 90–93 objects and 53–55 KiB on TCP,
// where the write buffer is built on the first message either way.
func TestLinkCycleAllocations(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("the race detector and ioverlay_debug builds do not recycle messages")
	}
	for _, tr := range []struct {
		name         string
		tcp          bool
		objects, kib float64
	}{{"vnet", false, 42, 20}, {"tcp", true, 73, 61}} {
		t.Run(tr.name, func(t *testing.T) {
			var n *vnet.Network
			if !tr.tcp {
				n = vnet.New()
				defer n.Close()
			}
			start := func(id message.NodeID, alg engine.Algorithm) *engine.Engine {
				cfg := engine.Config{ID: id, Algorithm: alg, StatusInterval: time.Hour}
				if tr.tcp {
					cfg.Transport = engine.TCP{}
				} else {
					cfg.Transport = engine.VNet{Net: n}
				}
				e, err := engine.New(cfg)
				if err != nil {
					t.Fatalf("New(%s): %v", id, err)
				}
				if err := e.Start(); err != nil {
					t.Fatalf("Start(%s): %v", id, err)
				}
				t.Cleanup(e.Stop)
				return e
			}
			id := func(i int) message.NodeID {
				if tr.tcp {
					return freeLoopbackID(t)
				}
				return nid(i)
			}

			const app, leavesN, warm, cycles = 1, 8, 100, 500
			hub := start(id(1), &multicast.Forwarder{})
			leafIDs := make([]message.NodeID, leavesN)
			leaves := make([]*multicast.Forwarder, leavesN)
			for i := range leaves {
				leafIDs[i], leaves[i] = id(i+2), &multicast.Forwarder{}
				start(leafIDs[i], leaves[i])
			}

			closed := make(chan struct{})
			cycle := func(c int) {
				leaf, peer := leaves[c%leavesN], leafIDs[c%leavesN]
				want := leaf.SeenMessages(app) + 1
				hub.Do(func(api engine.API) {
					api.SendNew(api.NewMsg(message.FirstDataType, app, uint32(c), 64), peer)
				})
				for deadline := time.Now().Add(5 * time.Second); leaf.SeenMessages(app) < want; {
					if time.Now().After(deadline) {
						t.Fatalf("cycle %d: the message never reached leaf %s", c, peer)
					}
					time.Sleep(20 * time.Microsecond)
				}
				hub.Do(func(api engine.API) {
					api.CloseLink(peer)
					closed <- struct{}{}
				})
				<-closed
				for _, d := range hub.Downstreams() {
					if d == peer {
						t.Fatalf("cycle %d: leaf %s still downstream after CloseLink", c, peer)
					}
				}
			}

			for c := 0; c < warm; c++ {
				cycle(c)
			}
			sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
			metrics.Read(sample)
			objects0, bytes0 := sample[0].Value.Uint64(), sample[1].Value.Uint64()
			for c := warm; c < warm+cycles; c++ {
				cycle(c)
			}
			metrics.Read(sample)
			objects := float64(sample[0].Value.Uint64()-objects0) / cycles
			kib := float64(sample[1].Value.Uint64()-bytes0) / cycles / 1024
			t.Logf("%d link cycles: %.1f objects and %.1f KiB per cycle", cycles, objects, kib)
			if objects >= tr.objects {
				t.Errorf("%.1f objects per link cycle, want < %g: building or tearing down a link allocates more again", objects, tr.objects)
			}
			if kib >= tr.kib {
				t.Errorf("%.1f KiB per link cycle, want < %g: building or tearing down a link allocates more again", kib, tr.kib)
			}
		})
	}
}
