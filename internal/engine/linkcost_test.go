package engine_test

import (
	"runtime"
	"runtime/metrics"
	"sync"
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
// cycle: vnet 12.4–17.1 and 14.9–15.4 KiB, loopback TCP 41.8–46.7 and
// 46.6–47.5 KiB; an earlier 25 read up to 17.2 objects and 15.6 KiB on
// vnet. The bounds are the highest reading plus a quarter for objects and
// a tenth for bytes, rounded up, and never raised. While a
// vnet connection was two Conns and two pipes whose first writes grew
// their buffers, and a link's framing, batches, staging, first app, dial
// flag, teardown closure and the door's hello state were objects of their
// own, the same 25-run reading was vnet 27.1–34.6 objects and 15.1–16.0
// KiB, TCP 49.0–55.2 and 46.9–47.8 KiB, against bounds of 42/20 and 73/61.
// While every engine had its own message pool and a 512-slot vnet listener
// backlog, vnet read 27.6–33.2 objects and 15.5–17.4 KiB. While a link's
// accepting goroutine started another for the receiver and posted the
// LinkUp as a closure, vnet read 29.5–35.0 objects. While a vnet pipe
// allocated its whole 64 KiB buffer when dialled, vnet read 35–41 objects
// and 159–167 KiB. Before a link's rings, meters, limiter and shapers moved
// inside its sender and receiver, and its write buffer was built on first
// use, the same test read 74–75 objects and 203 KiB on vnet, and 90–93
// objects and 53–55 KiB on TCP, where the write buffer is built on the
// first message either way.
func TestLinkCycleAllocations(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("the race detector and ioverlay_debug builds do not recycle messages")
	}
	for _, tr := range []struct {
		name         string
		tcp          bool
		objects, kib float64
	}{{"vnet", false, 22, 18}, {"tcp", true, 59, 53}} {
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

// TestIdleEngineFootprint is the tripwire on what an engine costs before it
// carries anything: New and Start on vnet, and one Do per engine so that its
// goroutines are running, read with the process-wide heap counters over 32
// engines after a forced GC (a collection during the reading adds a third
// to the objects). Every buffer an engine has a bound for — its turn inbox,
// its flight recorder, its links' rings and pipes, its local-source ring,
// its vnet listener's backlog — is allocated as it fills, its message
// buffers come from the process's one pool, and its algorithm's math/rand
// source is seeded on the first draw, so an idle engine holds none of
// them; what is left is mostly the Engine struct, its maps and channels,
// and its goroutines' closures.
//
// Readings on a 2-core x86-64 host over 25 runs, per engine: 20.2–27.0
// objects and 4.6–5.6 KiB (45 more at -cpu 1,2,4: up to 27.8 and 5.6). The
// bounds are the highest reading plus a quarter for objects and a tenth
// for bytes, rounded up. While every engine built its own message pool,
// local-source ring, 512-slot listener backlog and seeded math/rand
// source, the same test read 22–32 objects and 19.6–20.9 KiB. While the
// inbox was two buffered channels of 1024 control messages and 4096
// events, the flight recorder a preallocated ring of 1024 slots and the
// backoff jitter a math/rand source, it read 29–64 objects and 112–119
// KiB.
func TestIdleEngineFootprint(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("the race detector and ioverlay_debug builds allocate on their own")
	}
	const engines = 32
	const maxObjects, maxKiB = 35.0, 7.0
	n := vnet.New()
	defer n.Close()
	algs := make([]multicast.Forwarder, engines)
	var ran sync.WaitGroup
	settle := func(engine.API) { ran.Done() }

	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	objects0, bytes0 := sample[0].Value.Uint64(), sample[1].Value.Uint64()
	for i := range algs {
		e, err := engine.New(engine.Config{ID: nid(i + 1), Transport: engine.VNet{Net: n}, Algorithm: &algs[i]})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := e.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		defer e.Stop()
		ran.Add(1)
		e.Do(settle)
	}
	ran.Wait()
	metrics.Read(sample)
	objects := float64(sample[0].Value.Uint64()-objects0) / engines
	kib := float64(sample[1].Value.Uint64()-bytes0) / engines / 1024
	t.Logf("%d idle engines: %.1f objects and %.1f KiB each", engines, objects, kib)
	if objects >= maxObjects {
		t.Errorf("%.1f objects per idle engine, want < %g: an engine allocates more before it carries anything", objects, maxObjects)
	}
	if kib >= maxKiB {
		t.Errorf("%.1f KiB per idle engine, want < %g: an engine allocates more before it carries anything", kib, maxKiB)
	}
}

// TestFreshEngineReusesBuffers is the tripwire on the process-wide buffer
// pool: a fresh engine starts on the receive segments and messages that
// engines before it released, not on buffers of its own. A hub links to a
// leaf, delivers to it and closes the link; then, in the reading, each of
// 32 fresh leaves is built and started, receives a link from the hub and
// one 64-byte message, and sees the link closed again. Per fresh leaf, the
// reading holds its New and Start, both ends of its first link and its
// first delivery, and it must stay under one receive segment. With a pool
// per engine, each fresh leaf's receiver allocated its own 64 KiB segment
// for its first read. A segment released into one P's private slot of the
// pool cannot be taken from another P, hence the mean over several leaves.
func TestFreshEngineReusesBuffers(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("the race detector and ioverlay_debug builds do not recycle messages")
	}
	const app, fresh = 1, 32
	n := vnet.New()
	defer n.Close()
	start := func(id message.NodeID, alg engine.Algorithm) *engine.Engine {
		e, err := engine.New(engine.Config{ID: id, Transport: engine.VNet{Net: n}, Algorithm: alg, StatusInterval: time.Hour})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		if err := e.Start(); err != nil {
			t.Fatalf("Start(%s): %v", id, err)
		}
		t.Cleanup(e.Stop)
		return e
	}
	hub := start(nid(1), &multicast.Forwarder{})
	closed := make(chan struct{})
	// deliver links the hub to the leaf with one message and closes the
	// link once the leaf has it; it returns when the leaf's receiver has
	// given its segment back.
	deliver := func(c int, leaf *engine.Engine, alg *multicast.Forwarder) {
		peer := leaf.ID()
		hub.Do(func(api engine.API) {
			api.SendNew(api.NewMsg(message.FirstDataType, app, uint32(c), 64), peer)
		})
		waitFor(t, 5*time.Second, "the message to reach a leaf", func() bool { return alg.SeenMessages(app) > 0 })
		hub.Do(func(api engine.API) {
			api.CloseLink(peer)
			closed <- struct{}{}
		})
		<-closed
		waitFor(t, 5*time.Second, "a leaf to see its link close", func() bool { return len(leaf.Upstreams()) == 0 })
	}
	// A collection empties the pool, so one is forced before the test
	// rather than left to start in the reading.
	runtime.GC()
	var warm multicast.Forwarder
	deliver(0, start(nid(2), &warm), &warm)

	algs := make([]multicast.Forwarder, fresh)
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	bytes0 := sample[0].Value.Uint64()
	for i := range algs {
		deliver(i+1, start(nid(i+3), &algs[i]), &algs[i])
	}
	metrics.Read(sample)
	kib := float64(sample[0].Value.Uint64()-bytes0) / fresh / 1024
	t.Logf("%d fresh engines: %.1f KiB each for New, Start, a first link and a first delivery", fresh, kib)
	if max := float64(message.SegmentSize) / 1024; kib >= max {
		t.Errorf("%.1f KiB per fresh engine, want < %g: a fresh engine allocates its own receive buffers instead of reusing the process's", kib, max)
	}
}

// BenchmarkNew times engine.New on vnet: what building a node costs before
// Start, the allocation, zeroing and collection of its buffers included.
func BenchmarkNew(b *testing.B) {
	n := vnet.New()
	defer n.Close()
	var alg multicast.Forwarder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.New(engine.Config{ID: nid(1), Transport: engine.VNet{Net: n}, Algorithm: &alg}); err != nil {
			b.Fatal(err)
		}
	}
}
