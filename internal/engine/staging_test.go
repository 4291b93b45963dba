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
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// TestHopAllocatesNothing is the tripwire on the data path's steady state:
// a hop — decode, receiver ring, switch, Process, staging, sender ring,
// wire write — recycles the message struct with its buffer and allocates
// nothing per message, on either data lane. Measured over a 3-node chain
// with the process-wide allocation counter, so the status ticks and this
// test's own polling are in the reading; they are a few hundred objects
// against 40 000 hops. The stream lane's bound is loose because its
// back-to-back source makes the hop count per status tick vary; it read 2.3
// per hop before message structs were recycled. The paced datagram lane
// reads under 0.001, and read 0.033–0.072 while the vnet endpoint re-grew its
// read queue per batch and Do wrapped every injection in a closure.
func TestHopAllocatesNothing(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("the race detector and ioverlay_debug builds do not recycle messages")
	}
	for _, lane := range []struct {
		name  string
		dgram bool
		bound float64
	}{{"stream", false, 0.1}, {"datagram", true, 0.01}} {
		t.Run(lane.name, func(t *testing.T) {
			n := vnet.New()
			defer n.Close()
			const app, msgs = 1, 20000
			mode := func(c *engine.Config) { c.DatagramData = lane.dgram }

			sink := &multicast.Forwarder{}
			startNode(t, n, nid(3), sink, mode)
			mid := &multicast.Forwarder{DefaultRoutes: []message.NodeID{nid(3)}}
			startNode(t, n, nid(2), mid, mode)
			src := &multicast.Forwarder{DefaultRoutes: []message.NodeID{nid(2)}}
			a := startNode(t, n, nid(1), src, mode)
			if lane.dgram {
				// Paced like the benchmark's generator: a back-to-back source
				// overruns a datagram ring, and the overflow is loss.
				stop, done := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(done)
					pace(a, nid(2), app, 40, 64, time.Millisecond, stop)
				}()
				defer func() { close(stop); <-done }()
			} else {
				a.StartSource(app, 0, 64)
			}

			sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
			read := func() (allocs uint64, hops int64) {
				metrics.Read(sample)
				return sample[0].Value.Uint64(), mid.SeenMessages(app) + sink.SeenMessages(app)
			}
			// Warm-up: links up, pools and every reusable slice at their
			// working size.
			waitFor(t, 10*time.Second, "the chain to warm up", func() bool {
				return sink.SeenMessages(app) >= msgs/4
			})
			// A collection inside the window empties the message pools
			// (sync.Pool) and every message in flight is allocated again,
			// whatever a hop does: ≈ 1400 objects, 0.035 per hop on the
			// datagram lane. One is forced here so that the window's own
			// allocations — a flight recorder's chunks as its ring first
			// fills, a status report — cannot trigger one.
			runtime.GC()
			allocs0, hops0 := read()
			waitFor(t, 20*time.Second, "20 000 messages to reach the sink", func() bool {
				return sink.SeenMessages(app) >= msgs/4+msgs
			})
			allocs1, hops1 := read()

			perHop := float64(allocs1-allocs0) / float64(hops1-hops0)
			t.Logf("%d allocations over %d hops: %.4f per hop", allocs1-allocs0, hops1-hops0, perHop)
			if perHop >= lane.bound {
				t.Errorf("%.4f allocations per hop, want < %g: something on the data path allocates per message again", perHop, lane.bound)
			}
		})
	}
}

// ctrlMark stands for a control message in orderSink's arrival log.
const ctrlMark = ^uint32(0)

// orderSink logs what it consumes in arrival order: a data message's
// sequence number, ctrlMark for a Custom control message.
type orderSink struct {
	recorder
	logMu sync.Mutex
	log   []uint32
}

func (s *orderSink) Process(m *message.Msg) engine.Verdict {
	switch {
	case m.IsData():
		s.note(m.Seq())
	case m.Type() == protocol.TypeCustom:
		s.note(ctrlMark)
	}
	return s.recorder.Process(m)
}

func (s *orderSink) note(v uint32) {
	s.logMu.Lock()
	s.log = append(s.log, v)
	s.logMu.Unlock()
}

func (s *orderSink) arrivals() []uint32 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return append([]uint32(nil), s.log...)
}

// sendData sends count data messages numbered from first to dest, from the
// engine goroutine the caller is on.
func sendData(api engine.API, dest message.NodeID, app, first uint32, count int) {
	for i := 0; i < count; i++ {
		api.SendNew(api.NewMsg(message.FirstDataType, app, first+uint32(i), 512), dest)
	}
}

// TestStagedOutputKeepsOrderAcrossPark: a burst staged in one turn toward a
// destination whose ring takes only its first few messages goes into the
// ring and the parked backlog in send order, a later burst queues up behind
// what is parked rather than slipping into a ring slot freed meanwhile, and
// every charge is credited by the time the node has stopped.
func TestStagedOutputKeepsOrderAcrossPark(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, burst, late = 1, 64, 16

	sink := &orderSink{}
	startNode(t, n, nid(2), sink)
	const sendBuf = 4
	a := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) { c.SendBuf = sendBuf })
	capLink(a, nid(2), 1<<10) // stalled: two messages a second

	a.Do(func(api engine.API) { sendData(api, nid(2), app, 0, burst) })
	waitFor(t, 5*time.Second, "the burst's tail to park", func() bool {
		return a.Snapshot().Shards[0].Parked > 0
	})
	a.Do(func(api engine.API) { sendData(api, nid(2), app, burst, late) })
	waitFor(t, 5*time.Second, "the second burst to park behind the first", func() bool {
		return a.Snapshot().Shards[0].Parked > burst-late
	})
	// Only what the ring refused parks: its slots took the head of the first
	// burst, which is in the ring, being written or delivered.
	if parked := a.Snapshot().Shards[0].Parked; parked > burst+late-sendBuf {
		t.Errorf("%d messages parked, above the %d the ring can have refused", parked, burst+late-sendBuf)
	}

	a.SetBandwidthLocal(protocol.SetBandwidth{Class: protocol.BandwidthLink, Peer: nid(2), Rate: 0})
	waitFor(t, 10*time.Second, "everything to arrive", func() bool {
		return len(sink.arrivals()) >= burst+late
	})
	for i, seq := range sink.arrivals() {
		if seq != uint32(i) {
			t.Fatalf("arrival %d has sequence number %d: per-destination order broken", i, seq)
		}
	}
	a.Stop()
	if got := a.BufferedBytes(); got != 0 {
		t.Errorf("BufferedBytes = %d after Stop, want 0", got)
	}
}

// TestParkedControlKeepsOrder: one turn sends 150 times a sender ring's
// control lane of numbered control messages toward a warm link, so most of
// them park while the sender goroutine drains the lane. A message sent
// while earlier ones are parked must queue behind them, not slip into a
// lane slot freed meanwhile: all of them arrive in send order, every round.
func TestParkedControlKeepsOrder(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const rounds, burst = 20, 300
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	a := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) { c.SendBuf = 2 })
	custom := func(api engine.API, k int) {
		api.SendNew(message.New(protocol.TypeCustom, api.ID(), 0, 0, protocol.Custom{Kind: 1, P1: int64(k)}.Encode()), nid(2))
	}
	a.Do(func(api engine.API) { custom(api, -1) }) // warms the link
	waitFor(t, 5*time.Second, "the warm-up message", func() bool { return sink.count(protocol.TypeCustom) == 1 })

	for r := 0; r < rounds; r++ {
		a.Do(func(api engine.API) {
			for i := 0; i < burst; i++ {
				custom(api, r*burst+i)
			}
		})
		want := 1 + (r+1)*burst
		waitFor(t, 5*time.Second, "the round's control messages", func() bool { return sink.count(protocol.TypeCustom) == want })
	}
	for i, c := range sink.controlOf(protocol.TypeCustom)[1:] {
		got, err := protocol.DecodeCustom(c.payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.P1 != int64(i) {
			t.Fatalf("round %d: control message %d arrived at position %d: control-vs-control order broken", i/burst, got.P1, i)
		}
	}
}

// TestParkedBacklogDrainsWithoutTraffic: one turn sends a burst a hundred
// times the sender ring toward a fresh link, and then nothing happens on the
// node — no traffic, no status tick — so the only thing that can move the
// parked tail into the ring is the sender goroutine waking the switch as its
// ring drains. Every message must still arrive, in order, promptly, on both
// data lanes.
func TestParkedBacklogDrainsWithoutTraffic(t *testing.T) {
	const app, burst = 1, 200
	for lane, dgram := range lanes {
		t.Run(lane, func(t *testing.T) {
			n := vnet.New()
			defer n.Close()
			mode := func(c *engine.Config) { c.DatagramData, c.StatusInterval = dgram, time.Hour }
			sink := &orderSink{}
			// The sink's rings hold the whole burst: on the datagram lane a
			// full ring is loss, and what is under test is the sending side.
			startNode(t, n, nid(2), sink, mode, func(c *engine.Config) { c.RecvBuf = burst })
			a := startNode(t, n, nid(1), &recorder{}, mode, func(c *engine.Config) { c.SendBuf = 2 })

			a.Do(func(api engine.API) { sendData(api, nid(2), app, 0, burst) })
			for deadline := time.Now().Add(2 * time.Second); len(sink.arrivals()) < burst && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			expectInOrder(t, sink.arrivals(), burst)
		})
	}
}

// TestCloseLinkFlushesStaged: data sent before a CloseLink in the same turn
// is on its way, not staged toward a ring that is about to close.
func TestCloseLinkFlushesStaged(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1

	sink := &orderSink{}
	startNode(t, n, nid(2), sink)
	a := startNode(t, n, nid(1), &recorder{})
	// Closing a link that is still dialing abandons what was queued for it,
	// so bring the link up first.
	a.Do(func(api engine.API) { sendData(api, nid(2), app, 0, 1) })
	waitFor(t, 5*time.Second, "the link to come up", func() bool {
		return len(sink.arrivals()) == 1
	})
	a.Do(func(api engine.API) {
		sendData(api, nid(2), app, 1, 3)
		api.CloseLink(nid(2))
	})
	waitFor(t, 5*time.Second, "all three messages sent before the close", func() bool {
		return len(sink.arrivals()) == 4
	})
	if dropped := a.Counters().MsgsDropped; dropped != 0 {
		t.Errorf("%d messages dropped by the close", dropped)
	}
}

// TestControlOvertakesStagedData: control sent after data in the same turn
// goes to the ring's priority lane at once while the data waits for the
// turn's flush, so it arrives first — the service-class contract, now
// without depending on whether the sender goroutine has popped yet.
func TestControlOvertakesStagedData(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1

	sink := &orderSink{}
	startNode(t, n, nid(2), sink)
	a := startNode(t, n, nid(1), &recorder{})
	a.Do(func(api engine.API) {
		sendData(api, nid(2), app, 0, 8)
		api.SendNew(api.NewControl(protocol.TypeCustom, 0, protocol.Custom{Kind: 1}.Encode()), nid(2))
	})
	waitFor(t, 5*time.Second, "control and data to arrive", func() bool {
		return len(sink.arrivals()) == 9
	})
	if got := sink.arrivals(); got[0] != ctrlMark {
		t.Errorf("arrival order %v: control sent in the same turn did not overtake the staged data", got)
	}
}

// TestStatusTickAllocatesNothing: the status tick reads every link's rate
// and hands the algorithm one throughput notification per link, all from
// reused storage. It runs inside every window TestHopAllocatesNothing
// measures, where the runtime counts a fresh span of a size class at once:
// a tick's 16-byte encode buffers used to land there as 512 objects now
// and then, failing the datagram row (0.0130 per hop, once in 20 runs of
// the package). Two idle linked nodes ticking every millisecond; about 2.8
// objects per tick before, 0 now.
func TestStatusTickAllocatesNothing(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("the race detector and ioverlay_debug builds do not recycle messages")
	}
	n := vnet.New()
	defer n.Close()
	const tick = time.Millisecond
	fast := func(c *engine.Config) { c.StatusInterval = tick }
	startNode(t, n, nid(2), &multicast.Forwarder{}, fast)
	a := startNode(t, n, nid(1), &multicast.Forwarder{}, fast)
	a.Do(func(api engine.API) { sendData(api, nid(2), 1, 0, 1) })
	waitFor(t, 5*time.Second, "the link to come up", func() bool {
		return len(a.Downstreams()) == 1
	})
	time.Sleep(100 * time.Millisecond) // rates measured, scratch lists at size

	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	allocs0 := sample[0].Value.Uint64()
	const window = time.Second
	time.Sleep(window)
	metrics.Read(sample)
	// Two nodes; a loaded host ticks less often, which only lowers the
	// count the reading is divided by.
	perTick := float64(sample[0].Value.Uint64()-allocs0) / float64(2*window/tick)
	t.Logf("%.3f objects per status tick", perTick)
	if perTick >= 0.25 {
		t.Errorf("%.3f objects per status tick, want < 0.25: the tick allocates again", perTick)
	}
}

// TestDoAllocatesNothing: Do queues the caller's function as it is, so an
// injection loop that posts one prebuilt closure — the way a paced source
// does — costs no allocation per tick.
func TestDoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on channel operations")
	}
	n := vnet.New()
	defer n.Close()
	e := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) { c.StatusInterval = time.Hour })
	ran := make(chan struct{})
	fn := func(engine.API) { ran <- struct{}{} }
	if allocs := testing.AllocsPerRun(200, func() { e.Do(fn); <-ran }); allocs != 0 {
		t.Errorf("Do allocates %.2f objects per call, want 0", allocs)
	}
}
