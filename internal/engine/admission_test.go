package engine_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// rawDial opens a bare vnet connection to a node, bypassing the engine —
// the storm tests' stand-in for an arbitrary (possibly hostile) dialer.
func rawDial(t *testing.T, n *vnet.Network, from string, to message.NodeID) net.Conn {
	t.Helper()
	conn, err := n.DialFrom(from, to.Addr())
	if err != nil {
		t.Fatalf("raw dial %s -> %s: %v", from, to, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// writeHello sends the identifying first frame the handshake demands.
func writeHello(t *testing.T, conn net.Conn, sender message.NodeID) {
	t.Helper()
	hello := message.New(protocol.TypeHello, sender, 0, 0, nil)
	_, err := hello.WriteTo(conn)
	hello.Release()
	if err != nil {
		t.Fatalf("write hello: %v", err)
	}
}

// readBusy expects a Busy refusal frame on conn within the deadline and
// returns its payload.
func readBusy(t *testing.T, conn net.Conn, within time.Duration) protocol.Busy {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(within))
	m, err := message.Read(conn, nil, 256)
	if err != nil {
		t.Fatalf("reading Busy frame: %v", err)
	}
	defer m.Release()
	if m.Type() != protocol.TypeBusy {
		t.Fatalf("first frame = %s, want busy", protocol.TypeName(m.Type()))
	}
	bz, err := protocol.DecodeBusy(m.Payload())
	if err != nil {
		t.Fatalf("decode Busy: %v", err)
	}
	return bz
}

// expectWelcome asserts the acceptor answers the hello on conn with a
// Welcome frame within the window — the dialer-side signature of an
// admitted connection.
func expectWelcome(t *testing.T, conn net.Conn, within time.Duration) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(within))
	m, err := message.Read(conn, nil, 256)
	if err != nil {
		t.Fatalf("reading Welcome frame: %v", err)
	}
	defer m.Release()
	if typ := m.Type(); typ != protocol.TypeWelcome {
		detail := ""
		if bz, derr := protocol.DecodeBusy(m.Payload()); typ == protocol.TypeBusy && derr == nil {
			detail = fmt.Sprintf(" (reason %d, retry-after %v)",
				bz.Reason, time.Duration(bz.RetryAfterNanos))
		}
		t.Fatalf("reply = %s frame%s, want welcome", protocol.TypeName(typ), detail)
	}
	if m.Len() != 0 {
		t.Errorf("welcome carries %d payload bytes, want a bare header", m.Len())
	}
	_ = conn.SetReadDeadline(time.Time{})
}

// acceptEvents filters a node's flight-recorder snapshot down to the
// admission decisions of the given code.
func acceptEvents(e *engine.Engine, dec admission.Decision) []trace.Event {
	var out []trace.Event
	for _, ev := range e.Recorder().Snapshot() {
		if ev.Kind == trace.KindAccept && ev.Value == int64(dec) {
			out = append(out, ev)
		}
	}
	return out
}

// TestAdmissionGateCapsHandshakes checks the engine's half of the cap:
// Config.Admission reaches the gate, a dialer past it is refused with
// a Busy frame, and once a token frees up a hello is answered with
// Welcome. What the door itself promises about the cap — the hint, the
// accounting of dead handshakes — is TestFrontDoorConformance's, which
// runs it against this listener at the default gate.
func TestAdmissionGateCapsHandshakes(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	a := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) {
		c.Admission = admission.Config{MaxHandshakes: 2, SourceRate: 1000, SourceBurst: 1000}
	})

	half1 := rawDial(t, n, "10.0.9.1:1", nid(1))
	half2 := rawDial(t, n, "10.0.9.2:1", nid(1))
	waitFor(t, 5*time.Second, "both handshakes in flight", func() bool {
		return a.Admission().InFlight == 2
	})

	refused := rawDial(t, n, "10.0.9.3:1", nid(1))
	if bz := readBusy(t, refused, 2*time.Second); bz.Reason != protocol.BusyHandshakes {
		t.Errorf("busy reason = %d, want BusyHandshakes", bz.Reason)
	}

	half1.Close()
	half2.Close()
	waitFor(t, 5*time.Second, "tokens released after handshake deaths", func() bool {
		return a.Admission().InFlight == 0
	})
	fresh := rawDial(t, n, "10.0.9.4:1", nid(1))
	writeHello(t, fresh, message.MakeID("10.0.9.4", 1))
	expectWelcome(t, fresh, 2*time.Second)

	if st := a.Admission(); st.InFlightPeak > 2 {
		t.Errorf("in-flight peak = %d, exceeded MaxHandshakes=2", st.InFlightPeak)
	}
}

// TestFailedHandshakesAreInstrumented is the satellite-2 check: a
// connection that sends a non-hello first frame and one that never sends
// anything both land in the failure counter and on the flight recorder,
// with distinct decision codes, instead of vanishing in a silent close.
func TestFailedHandshakesAreInstrumented(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	a := startTimedNode(t, n, nid(1), &recorder{}, engine.Timing{Handshake: 100 * time.Millisecond})

	bad := rawDial(t, n, "10.0.9.1:1", nid(1))
	junk := message.New(protocol.TypePing, message.MakeID("10.0.9.1", 1), 0, 0, nil)
	if _, err := junk.WriteTo(bad); err != nil {
		t.Fatalf("write junk frame: %v", err)
	}
	junk.Release()

	mute := rawDial(t, n, "10.0.9.2:1", nid(1))
	defer mute.Close()

	waitFor(t, 5*time.Second, "both handshake failures counted", func() bool {
		return a.Counters().HandshakesFailed >= 2
	})
	if got := len(acceptEvents(a, admission.BadHello)); got == 0 {
		t.Error("no bad-hello event on the flight recorder")
	}
	if got := len(acceptEvents(a, admission.Timeout)); got == 0 {
		t.Error("no handshake-timeout event on the flight recorder")
	}
}

// TestGreylistedSourceIsClosedSilently flaps one source past the greylist
// threshold and checks the engine stops answering it entirely — no Busy
// frame, just a close — while an unrelated source is still served.
func TestGreylistedSourceIsClosedSilently(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	a := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) {
		c.Admission = admission.Config{
			SourceRate: 0.001, SourceBurst: 1, // one token, effectively no refill
			GreylistAfter: 2, GreylistFor: time.Hour,
		}
	})

	// First connection spends the burst; the next two strike out; every
	// one after that is greylisted.
	for i := 0; i < 3; i++ {
		c := rawDial(t, n, "10.0.9.1:1", nid(1))
		time.Sleep(20 * time.Millisecond)
		c.Close()
	}
	waitFor(t, 5*time.Second, "source to be greylisted", func() bool {
		return a.Admission().ShedGreylist >= 1
	})

	grey := rawDial(t, n, "10.0.9.1:1", nid(1))
	_ = grey.SetReadDeadline(time.Now().Add(2 * time.Second))
	if m, err := message.Read(grey, nil, 256); err == nil {
		typ := m.Type()
		m.Release()
		t.Fatalf("greylisted source got a %s frame, want silent close", protocol.TypeName(typ))
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("greylisted connection left hanging, want close")
	}

	polite := rawDial(t, n, "10.0.9.7:1", nid(1))
	writeHello(t, polite, message.MakeID("10.0.9.7", 1))
	expectWelcome(t, polite, 2*time.Second)
}

// TestDuplicateConnReplaceRace is the satellite-3 coverage: concurrent
// connections claiming the same peer identity race through the replace
// path in handshake. Run under -race with the debug invariants armed
// (make race), this pins down double-close and gauge-leak bugs in the
// old-link replacement.
func TestDuplicateConnReplaceRace(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	sink := &recorder{}
	a := startNode(t, n, nid(1), sink, func(c *engine.Config) {
		c.Admission = admission.Config{SourceRate: 10000, SourceBurst: 10000}
	})

	peer := nid(3)
	var wg sync.WaitGroup
	for round := 0; round < 10; round++ {
		conns := make([]net.Conn, 4)
		for i := range conns {
			conn, err := n.DialFrom(fmt.Sprintf("10.0.0.3:%d", 100+i), nid(1).Addr())
			if err != nil {
				t.Fatalf("round %d dial %d: %v", round, i, err)
			}
			conns[i] = conn
		}
		for _, conn := range conns {
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				hello := message.New(protocol.TypeHello, peer, 0, 0, nil)
				_, _ = hello.WriteTo(conn)
				hello.Release()
			}(conn)
		}
		wg.Wait()
		waitFor(t, 5*time.Second, "replacement to settle", func() bool {
			// All four registered (or died racing a replacement); exactly
			// one receiver survives, the rest were closed.
			return a.Admission().InFlight == 0
		})
		for _, conn := range conns {
			conn.Close()
		}
	}

	// The engine is still healthy: a real peer joins and delivers.
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(1)}
	eb := startNode(t, n, nid(4), src)
	eb.StartSource(app, 0, 1024)
	waitFor(t, 10*time.Second, "traffic after the replace storm", func() bool {
		return sink.ReceivedBytes(app) > 32*1024
	})
}

// TestDialerHonorsBusyBackpressure exercises the full refusal loop: the
// acceptor's gate is saturated, the dialing engine reads the refusal in
// answer to its hello and floors its backoff with the hint, and once capacity
// frees up the retry succeeds and traffic flows.
func TestDialerHonorsBusyBackpressure(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 1
	sink := &recorder{}
	a := startNode(t, n, nid(1), sink, func(c *engine.Config) {
		c.Admission = admission.Config{MaxHandshakes: 1, SourceRate: 1000, SourceBurst: 1000}
	})

	// Saturate the single handshake token with a half-open connection.
	half := rawDial(t, n, "10.0.9.1:1", nid(1))
	waitFor(t, 5*time.Second, "token held", func() bool {
		return a.Admission().InFlight == 1
	})

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(1)}
	eb := startTimedNode(t, n, nid(2), src, engine.Timing{RetryMax: 50 * time.Millisecond, DialAttempts: 1000}, func(c *engine.Config) {
		c.RetryBase = 5 * time.Millisecond
	})
	eb.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "acceptor to shed the dialer busy", func() bool {
		return a.Admission().ShedBusy >= 1
	})
	// The refusal is visible on the dialer's timeline as a backoff event.
	// Looked for now, while the refused link carries nothing: once traffic
	// flows, switch events roll the fixed-size flight recorder over within
	// milliseconds.
	waitFor(t, 5*time.Second, "dialer to record a backoff event", func() bool {
		for _, ev := range eb.Recorder().Snapshot() {
			if ev.Kind == trace.KindBackoff && ev.Peer == nid(1) {
				return true
			}
		}
		return false
	})
	// Free the token; the dialer's backoff retry must now get through.
	half.Close()
	waitFor(t, 10*time.Second, "traffic after capacity freed", func() bool {
		return sink.ReceivedBytes(app) > 32*1024
	})
}
