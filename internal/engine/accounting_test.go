package engine_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// lanes is the table both accounting tests run over, name → DatagramData:
// the two framings drive the same sender loop and the same gauge.
var lanes = map[string]bool{"stream": false, "datagram": true}

// TestCountersCountMessagesNotBatches: MsgsIn/MsgsOut are message counts.
// The stream lane used to bump them once per decoded or drained batch, so
// they under-read by the batch factor while the byte counters were right.
func TestCountersCountMessagesNotBatches(t *testing.T) {
	// Whatever else a link carries — pings, link events — is control: a
	// handful of frames next to thousands of data messages.
	const app, ctrlSlack = 4, 16
	for lane, dgram := range lanes {
		t.Run(lane, func(t *testing.T) {
			n := vnet.New()
			defer n.Close()
			mode := func(c *engine.Config) { c.DatagramData = dgram }
			sink := &recorder{}
			b := startNode(t, n, nid(2), sink, mode)
			src := &recorder{}
			src.DefaultRoutes = []message.NodeID{nid(2)}
			a := startNode(t, n, nid(1), src, mode)
			a.StartSource(app, 0, 256)
			waitFor(t, 10*time.Second, "a few thousand messages to arrive", func() bool {
				return sink.SeenMessages(app) > 5000
			})
			a.StopSource(app)

			// Drained: neither node holds a reference and, since bytes in a
			// vnet pipe are in neither gauge, nothing has moved for a while.
			type reading struct{ processed, in, out int64 }
			read := func() reading {
				return reading{sink.SeenMessages(app), b.Counters().MsgsIn, a.Counters().MsgsOut}
			}
			var r reading
			waitFor(t, 5*time.Second, "the link to drain", func() bool {
				if a.BufferedBytes() != 0 || b.BufferedBytes() != 0 {
					return false
				}
				r = read()
				time.Sleep(50 * time.Millisecond)
				return r == read()
			})
			// Loss is the datagram lane's contract (a full ring drops after
			// the arrival was counted), so its counts bound from above only.
			slack := int64(ctrlSlack)
			if dgram {
				slack = r.out
			}
			if r.in < r.processed || r.in > r.processed+slack || r.out < r.in || r.out > r.in+slack {
				t.Errorf("sink processed %d data messages, sink MsgsIn = %d, source MsgsOut = %d: want processed <= in <= out, each step within %d",
					r.processed, r.in, r.out, slack)
			}
		})
	}
}

// TestGaugeReconcilesAfterStop drives the buffered-bytes gauge through
// every way a message reference can be disposed of — written, dropped with
// a dead or replaced link, released by a graceful close, drained by Stop —
// on both lanes, and
// checks the one property that catches a lost or doubled credit in a
// release build: after Stop the gauge reads exactly zero. (The
// ioverlay_debug builds assert the same inside Stop, and non-negativity
// at every credit.)
func TestGaugeReconcilesAfterStop(t *testing.T) {
	const app = 6
	src, relay, sink := nid(1), nid(2), nid(3)
	// chain is source a → relay b → sink c; b, with algorithm alg, is the
	// node under test.
	type chain struct {
		n       *vnet.Network
		a, b, c *engine.Engine
		alg     *recorder
	}
	parked := func(ch chain) bool { return ch.b.Snapshot().Shards[0].Parked > 0 }
	// inline reports that the relay is on both fast paths: the paced
	// scenarios' traffic is switched by the goroutine that decoded it — the
	// stream receiver or the packet reader — and written by the same turn.
	inline := func(ch chain) bool {
		c := ch.b.Counters()
		return c.SwitchedInline > 500 && c.WrittenInline > 500
	}
	scenarios := []struct {
		name string
		// sinkCap, when set, caps b's link to the sink in bytes per second;
		// sendBuf sizes b's sender rings (zero: the default).
		sinkCap int64
		sendBuf int
		// rate paces the source in bytes per second; zero is back to back.
		rate int64
		// ready reports that the disposal path is being exercised; then,
		// when set, acts on the chain once it is.
		ready func(ch chain) bool
		then  func(t *testing.T, ch chain)
	}{{
		name:    "downstream killed with a parked backlog",
		sinkCap: 20 << 10, sendBuf: 5,
		ready: parked,
		then: func(t *testing.T, ch chain) {
			ch.c.Stop()
			// A datagram link learns of the death from its control lane,
			// so give it control to write.
			waitFor(t, 10*time.Second, "the relay to see its downstream die", func() bool {
				ch.b.Do(func(api engine.API) { api.Ping(sink) })
				return ch.alg.count(protocol.TypeLinkDown) > 0
			})
		},
	}, {
		name:    "CloseLink with data parked",
		sinkCap: 20 << 10, sendBuf: 5,
		ready: parked,
		then: func(t *testing.T, ch chain) {
			closed := make(chan struct{})
			ch.b.Do(func(api engine.API) { api.CloseLink(sink); close(closed) })
			<-closed
			// Traffic keeps coming: the next Send reopens the link.
			waitFor(t, 10*time.Second, "the backlog to rebuild", func() bool { return parked(ch) })
		},
	}, {
		// Back-pressure binds — the parked backlog is full, so the switch
		// has stopped draining the upstream ring — when the upstream's
		// identity says hello again. The switch never looks at a replaced
		// ring again: what it held used to stay there, charged for good.
		name:    "upstream reconnects onto a full ring",
		sinkCap: 20 << 10, sendBuf: 5,
		ready: func(ch chain) bool {
			ups := ch.b.Snapshot().Upstreams
			return len(ups) == 1 && ups[0].BufLen == ups[0].BufCap
		},
		then: func(t *testing.T, ch chain) {
			again := rawDial(t, ch.n, src.Addr(), relay)
			writeHello(t, again, src)
			expectWelcome(t, again, time.Second)
		},
	}, {
		name:  "Stop mid-traffic",
		ready: func(ch chain) bool { return ch.alg.SeenMessages(app) > 2000 },
	}, {
		// The relay is unloaded, so Stop finds no backlog to drain: it races
		// receiver goroutines that hold the turn token and are writing the
		// wire themselves.
		name:  "Stop racing inline turns",
		rate:  8 << 20,
		ready: inline,
	}, {
		// CloseLink runs in engine-goroutine turns that alternate with the
		// receiver's inline ones; every close finds the link idle or with a
		// run just written, and the next Send reopens it.
		name:  "CloseLink racing inline writes",
		rate:  8 << 20,
		ready: inline,
		then: func(t *testing.T, ch chain) {
			for i := 0; i < 50; i++ {
				closed := make(chan struct{})
				ch.b.Do(func(api engine.API) { api.CloseLink(sink); close(closed) })
				<-closed
				time.Sleep(time.Millisecond)
			}
		},
	}}
	for lane, dgram := range lanes {
		for _, sc := range scenarios {
			t.Run(lane+"/"+sc.name, func(t *testing.T) {
				ch := chain{n: vnet.New(), alg: &recorder{}}
				defer ch.n.Close()
				mode := func(c *engine.Config) { c.DatagramData = dgram }

				ch.c = startNode(t, ch.n, sink, &recorder{}, mode)
				ch.alg.DefaultRoutes = []message.NodeID{sink}
				ch.b = startNode(t, ch.n, relay, ch.alg, mode, func(c *engine.Config) { c.SendBuf = sc.sendBuf })
				if sc.sinkCap > 0 {
					capLink(ch.b, sink, sc.sinkCap)
				}
				srcAlg := &recorder{}
				srcAlg.DefaultRoutes = []message.NodeID{relay}
				ch.a = startNode(t, ch.n, src, srcAlg, mode)
				ch.a.StartSource(app, sc.rate, 2048)

				waitFor(t, 10*time.Second, sc.name, func() bool { return sc.ready(ch) })
				if sc.then != nil {
					sc.then(t, ch)
				}

				// The relay goes first, with traffic still arriving and its
				// rings, parked backlog and write batch all occupied.
				for _, e := range []*engine.Engine{ch.b, ch.a, ch.c} {
					e.Stop()
					if got := e.BufferedBytes(); got != 0 {
						t.Errorf("%s: BufferedBytes = %d after Stop, want 0", e.ID(), got)
					}
				}
			})
		}
	}
}
