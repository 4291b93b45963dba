package observer_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/multicast"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// frontDoor is one listener behind an admission.Door, seen from outside:
// where to dial it and where its accounting shows.
type frontDoor struct {
	id        message.NodeID
	admission func() admission.Stats
	counters  func() metrics.CountersSnapshot
	events    func() []trace.Event
}

func (d frontDoor) accepts(dec admission.Decision) int {
	count := 0
	for _, ev := range d.events() {
		if ev.Kind == trace.KindAccept && ev.Value == int64(dec) {
			count++
		}
	}
	return count
}

// doorKinds builds each of the three listeners that share the door, at its
// default gate and the door's 10 s hello deadline.
var doorKinds = []struct {
	name  string
	start func(t *testing.T, n *vnet.Network) frontDoor
}{
	{"engine", func(t *testing.T, n *vnet.Network) frontDoor {
		e, err := engine.New(engine.Config{
			ID:        nid(1),
			Transport: engine.VNet{Net: n},
			Algorithm: &multicast.Forwarder{},
		})
		if err != nil {
			t.Fatalf("engine.New: %v", err)
		}
		if err := e.Start(); err != nil {
			t.Fatalf("engine.Start: %v", err)
		}
		t.Cleanup(e.Stop)
		return frontDoor{nid(1), e.Admission, e.Counters, e.Events}
	}},
	{"observer", func(t *testing.T, n *vnet.Network) frontDoor {
		o := startObserver(t, n)
		return frontDoor{obsID, o.Admission, o.Counters, o.Events}
	}},
	{"proxy", func(t *testing.T, n *vnet.Network) frontDoor {
		startObserver(t, n)
		id := message.MakeID("10.254.0.1", 9100)
		p, err := proxy.New(proxy.Config{ID: id, Observer: obsID, Transport: engine.VNet{Net: n}})
		if err != nil {
			t.Fatalf("proxy.New: %v", err)
		}
		if err := p.Start(); err != nil {
			t.Fatalf("proxy.Start: %v", err)
		}
		t.Cleanup(p.Stop)
		return frontDoor{id, p.Admission, p.Counters, p.Events}
	}},
}

func dialDoor(t *testing.T, n *vnet.Network, from string, d frontDoor) net.Conn {
	t.Helper()
	conn, err := n.DialFrom(from, d.id.Addr())
	if err != nil {
		t.Fatalf("dial %s -> %s: %v", from, d.id, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectAdmitted dials from a fresh source, identifies, and requires the
// door to hand the connection over — its one reply frame a bare Welcome —
// and its accounting to show it: the listener is alive and serving.
func expectAdmitted(t *testing.T, n *vnet.Network, d frontDoor) {
	t.Helper()
	before := d.admission().Admitted
	conn := dialDoor(t, n, "10.0.8.1:1", d)
	hello := message.New(protocol.TypeHello, message.MakeID("10.0.8.1", 1), 0, 0, nil)
	_, err := hello.WriteTo(conn)
	hello.Release()
	if err != nil {
		t.Fatalf("write hello: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := message.Read(conn, nil, 256)
	if err != nil {
		t.Fatalf("reading the reply to a polite hello: %v", err)
	}
	if reply.Type() != protocol.TypeWelcome || reply.Len() != 0 {
		t.Fatalf("reply to a polite hello = %s frame with %d payload bytes, want a bare welcome",
			protocol.TypeName(reply.Type()), reply.Len())
	}
	reply.Release()
	waitFor(t, 5*time.Second, "a polite dialer to be admitted and identified", func() bool {
		st := d.admission()
		return st.Admitted > before && st.InFlight == 0
	})
}

// expectSilentClose requires conn to be closed by the far side without a
// single frame.
func expectSilentClose(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	m, err := message.Read(conn, nil, 256)
	if err == nil {
		typ := m.Type()
		m.Release()
		t.Fatalf("got a %s frame, want a silent close", protocol.TypeName(typ))
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection left hanging, want it closed")
	}
}

func readBusy(t *testing.T, conn net.Conn) protocol.Busy {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	m, err := message.Read(conn, nil, 256)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	defer m.Release()
	if m.Type() != protocol.TypeBusy {
		t.Fatalf("refusal frame = %s, want busy", protocol.TypeName(m.Type()))
	}
	bz, err := protocol.DecodeBusy(m.Payload())
	if err != nil {
		t.Fatalf("decode Busy: %v", err)
	}
	return bz
}

// TestFrontDoorConformance runs the admission contract against every
// listener that stands behind the shared door — an engine's publicized
// port, an observer's registration port, a proxy's node-facing port — each
// at its default gate: whatever the door promises, all three keep.
func TestFrontDoorConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, n *vnet.Network, d frontDoor)
	}{
		// The handshake cap holds, a dial past it is told when to come
		// back, and dead handshakes give their tokens back, counted.
		{"cap", func(t *testing.T, n *vnet.Network, d frontDoor) {
			const limit = admission.DefaultMaxHandshakes
			halves := make([]net.Conn, limit)
			for i := range halves {
				halves[i] = dialDoor(t, n, fmt.Sprintf("10.0.9.%d:1", i+1), d)
			}
			waitFor(t, 5*time.Second, "every handshake token taken", func() bool {
				return d.admission().InFlight == limit
			})
			bz := readBusy(t, dialDoor(t, n, "10.0.7.1:1", d))
			if bz.Reason != protocol.BusyHandshakes {
				t.Errorf("busy reason = %d, want BusyHandshakes", bz.Reason)
			}
			if got := time.Duration(bz.RetryAfterNanos); got != admission.DefaultRetryAfter {
				t.Errorf("retry-after hint = %v, want the gate's %v", got, admission.DefaultRetryAfter)
			}
			for _, c := range halves {
				c.Close()
			}
			waitFor(t, 5*time.Second, "tokens released by the dead handshakes", func() bool {
				return d.admission().InFlight == 0
			})
			if st := d.admission(); st.InFlightPeak > limit || st.ShedBusy == 0 {
				t.Errorf("in-flight peak %d (cap %d), %d busy sheds", st.InFlightPeak, limit, st.ShedBusy)
			}
			if c := d.counters(); c.HandshakesFailed < limit || c.ConnsShed == 0 {
				t.Errorf("HandshakesFailed = %d (want >= %d), ConnsShed = %d (want > 0)",
					c.HandshakesFailed, limit, c.ConnsShed)
			}
			if d.accepts(admission.ShedBusy) == 0 || d.accepts(admission.BadHello) < limit {
				t.Errorf("recorder holds %d shed-busy and %d bad-hello events",
					d.accepts(admission.ShedBusy), d.accepts(admission.BadHello))
			}
			expectAdmitted(t, n, d)
		}},
		// A source that keeps hammering past its rate is told to slow
		// down, then goes dark: closed without a frame. Others are served.
		{"greylist", func(t *testing.T, n *vnet.Network, d frontDoor) {
			const flapper = "10.0.9.1:1"
			for i := 0; i < admission.DefaultSourceBurst; i++ {
				dialDoor(t, n, flapper, d).Close()
			}
			bz := readBusy(t, dialDoor(t, n, flapper, d))
			if bz.Reason != protocol.BusyRate || bz.RetryAfterNanos <= 0 {
				t.Errorf("busy = %+v, want BusyRate with a positive hint", bz)
			}
			for i := 1; i < admission.DefaultGreylistAfter; i++ {
				dialDoor(t, n, flapper, d).Close()
			}
			waitFor(t, 5*time.Second, "the flapping source to be greylisted", func() bool {
				return d.admission().ShedGreylist >= 1
			})
			expectSilentClose(t, dialDoor(t, n, flapper, d))
			if d.accepts(admission.ShedRate) == 0 || d.accepts(admission.ShedGreylist) == 0 {
				t.Errorf("recorder holds %d shed-rate and %d shed-greylist events",
					d.accepts(admission.ShedRate), d.accepts(admission.ShedGreylist))
			}
			expectAdmitted(t, n, d)
		}},
		// Transient Accept errors (EMFILE, ECONNABORTED) are retried with
		// back-off, not taken for a dead listener.
		{"accept-errors", func(t *testing.T, n *vnet.Network, d frontDoor) {
			const injected = 4
			if !n.InjectAcceptErrors(d.id.Addr(), injected) {
				t.Fatal("InjectAcceptErrors: no such listener")
			}
			// The loop is parked inside Accept; a throwaway connection
			// unparks it so the injected errors surface.
			dialDoor(t, n, "10.0.9.99:1", d).Close()
			waitFor(t, 5*time.Second, "the injected accept errors to be retried", func() bool {
				return n.AcceptErrorsDelivered(d.id.Addr()) == injected &&
					d.counters().AcceptRetries >= injected
			})
			if got := d.accepts(admission.AcceptRetry); got < injected {
				t.Errorf("recorder holds %d accept-retry events, want >= %d", got, injected)
			}
			expectAdmitted(t, n, d)
		}},
		// A first frame that is not a hello is a failed handshake, counted
		// and on the recorder.
		{"bad-hello", func(t *testing.T, n *vnet.Network, d frontDoor) {
			conn := dialDoor(t, n, "10.0.9.1:1", d)
			junk := message.New(protocol.TypePing, message.MakeID("10.0.9.1", 1), 0, 0, nil)
			_, err := junk.WriteTo(conn)
			junk.Release()
			if err != nil {
				t.Fatalf("write junk frame: %v", err)
			}
			waitFor(t, 5*time.Second, "the bad hello to be counted", func() bool {
				return d.counters().HandshakesFailed >= 1 && d.accepts(admission.BadHello) >= 1
			})
			expectSilentClose(t, conn)
			expectAdmitted(t, n, d)
		}},
		// A dialer that never identifies itself is a failed handshake of
		// its own kind once the hello deadline passes. The deadline runs
		// from the dial, so dialing before the row goes parallel lets the
		// three listeners wait theirs out at once, however few rows
		// -parallel lets run together.
		{"late-hello", func(t *testing.T, n *vnet.Network, d frontDoor) {
			mute := dialDoor(t, n, "10.0.9.2:1", d)
			t.Parallel()
			waitFor(t, admission.DefaultHelloTimeout+5*time.Second, "the mute dialer to time out", func() bool {
				return d.counters().HandshakesFailed >= 1 && d.accepts(admission.Timeout) >= 1
			})
			expectSilentClose(t, mute)
			if st := d.admission(); st.InFlight != 0 {
				t.Errorf("InFlight = %d after the timeout, want 0", st.InFlight)
			}
		}},
	}
	for _, kind := range doorKinds {
		for _, row := range rows {
			t.Run(kind.name+"/"+row.name, func(t *testing.T) {
				n := vnet.New()
				defer n.Close()
				row.run(t, n, kind.start(t, n))
			})
		}
	}
}
