package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// serialSink checks the single-thread contract from the inside. calls is a
// plain, unsynchronised counter and the first thing Process touches: two
// consecutive calls on different goroutines are ordered only by whatever
// the engine did to hand the turn over, so a missing happens-before edge is
// the race detector's to report. inFlight must never read 2: never two
// Process calls at once.
type serialSink struct {
	multicast.Forwarder
	calls    int
	inFlight atomic.Int32
	overlaps atomic.Int32
	customs  atomic.Int32
}

func (s *serialSink) Process(m *message.Msg) engine.Verdict {
	s.calls++
	if s.inFlight.Add(1) != 1 {
		s.overlaps.Add(1)
	}
	if m.Type() == protocol.TypeCustom {
		s.customs.Add(1)
	}
	v := s.Forwarder.Process(m)
	s.inFlight.Add(-1)
	return v
}

// TestSwitchFansInEightReceivers fans eight sources into one relay — the
// only test that puts more than two receivers on one stride scheduler —
// and checks everything reaches the sink and the status report carries
// the one switch's occupancy entry with nothing handed off.
func TestSwitchFansInEightReceivers(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7
	const sources = 8

	sink := &recorder{}
	startNode(t, n, nid(99), sink)

	relay := &recorder{}
	relay.DefaultRoutes = []message.NodeID{nid(99)}
	r := startNode(t, n, nid(50), relay)

	for i := 0; i < sources; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(50)}
		a := startNode(t, n, nid(i+1), src)
		a.StartSource(app, 0, 1024)
	}

	waitFor(t, 10*time.Second, "sink to receive data fanned in from all eight", func() bool {
		ups := r.Snapshot().Upstreams
		for _, u := range ups {
			if u.BytesTotal == 0 {
				return false
			}
		}
		return len(ups) == sources && sink.ReceivedBytes(app) > 256<<10
	})

	rp := r.Snapshot()
	if len(rp.Shards) != 1 {
		t.Fatalf("report carries %d switch entries, want exactly 1", len(rp.Shards))
	}
	if s := rp.Shards[0]; s.Shard != 0 || s.Switched == 0 || s.HandoffDepth != 0 || s.HandoffPeak != 0 {
		t.Errorf("switch entry = %+v, want shard 0 with Switched > 0 and no handoff", s)
	}
}

// TestProcessStaysSerialized checks the paper's contract as the engine now
// keeps it: never two Algorithm.Process calls at once, and every call
// happens-after the previous one, whichever goroutine holds the turn token.
// Four stream receivers and the packet reader feed the sink (switching
// inline when they can), a sixth link carries control traffic and a Do loop
// adds events, so every kind of turn competes for the token.
func TestProcessStaysSerialized(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, dgramApp = 3, 4

	sink := &serialSink{}
	// The sink binds a packet endpoint; its stream peers still send on the
	// stream, so data reaches it both ways.
	e := startNode(t, n, nid(9), sink, func(c *engine.Config) { c.DatagramData = true })

	for i := 0; i < 4; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(9)}
		a := startNode(t, n, nid(i+1), src)
		a.StartSource(app, 0, 1024)
	}
	dsrc := &recorder{}
	dsrc.DefaultRoutes = []message.NodeID{nid(9)}
	// Paced: nothing holds a datagram source back, and its overflow is loss.
	startNode(t, n, nid(6), dsrc, func(c *engine.Config) { c.DatagramData = true }).StartSource(dgramApp, 4<<20, 1024)
	ctl := startNode(t, n, nid(5), &recorder{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // control messages from a peer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctl.Do(func(api engine.API) {
				api.SendNew(api.NewControl(protocol.TypeCustom, app, []byte("c")), nid(9))
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var events atomic.Int32
	go func() { // events on the sink itself
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Do(func(engine.API) { events.Add(1) })
			time.Sleep(200 * time.Microsecond)
		}
	}()

	waitFor(t, 10*time.Second, "sink to process fanned-in data, datagrams, control and events", func() bool {
		return sink.ReceivedBytes(app) > 2<<20 && sink.ReceivedBytes(dgramApp) > 1<<20 &&
			sink.customs.Load() > 100 && events.Load() > 100
	})
	close(stop)
	wg.Wait()

	if o := sink.overlaps.Load(); o != 0 {
		t.Fatalf("%d Process calls began while another was in flight, want 0", o)
	}
	fp := e.Counters()
	t.Logf("switched inline %d, via ring %d", fp.SwitchedInline, fp.SwitchedViaRing)
}
