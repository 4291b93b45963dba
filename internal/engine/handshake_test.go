package engine

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// connPair dials through a vnet and returns both ends of the stream.
func connPair(t *testing.T, n *vnet.Network) (client, server net.Conn) {
	t.Helper()
	ln, err := n.Listen("10.0.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, aerr := ln.Accept()
		if aerr == nil {
			accepted <- c
		}
	}()
	client, err = n.DialFrom("10.0.0.1:7000", "10.0.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case server = <-accepted:
	case <-time.After(time.Second):
		t.Fatal("accept never completed")
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}

var acceptorID = message.MakeID("10.0.0.2", 7000)

// frame renders one message's wire image.
func frame(t *testing.T, typ message.Type, app, seq uint32, payload []byte) []byte {
	t.Helper()
	var img bytes.Buffer
	if _, err := message.New(typ, acceptorID, app, seq, payload).WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

func busyFrame(t *testing.T, hint time.Duration) []byte {
	return frame(t, protocol.TypeBusy, 0, 0,
		protocol.Busy{Reason: protocol.BusyHandshakes, RetryAfterNanos: int64(hint)}.Encode())
}

// replyBuf is what a sender lends awaitAdmission.
func replyBuf() []byte { return make([]byte, message.HeaderSize+protocol.BusySize) }

func TestAwaitAdmissionWelcomeAdmits(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	client, server := connPair(t, n)
	if _, err := server.Write(frame(t, protocol.TypeWelcome, 0, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if hint, err := awaitAdmission(client, replyBuf()); err != nil || hint != 0 {
		t.Fatalf("awaitAdmission on Welcome = (%v, %v), want admitted", hint, err)
	}
}

func TestAwaitAdmissionBusyCarriesHint(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	client, server := connPair(t, n)
	if _, err := server.Write(busyFrame(t, 250*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	hint, err := awaitAdmission(client, replyBuf())
	if !errors.Is(err, errPeerBusy) {
		t.Fatalf("awaitAdmission on a Busy frame: %v, want errPeerBusy", err)
	}
	if hint != 250*time.Millisecond {
		t.Errorf("hint = %v, want 250ms", hint)
	}
}

// TestAwaitAdmissionSilentCloseFails: a greylisted source (or a refusal
// past the Busy-writer bound) is hung up on without a frame. That is a
// failed attempt with no hint — never an admission.
func TestAwaitAdmissionSilentCloseFails(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	client, server := connPair(t, n)
	server.Close()
	hint, err := awaitAdmission(client, replyBuf())
	if err == nil || errors.Is(err, errPeerBusy) || hint != 0 {
		t.Fatalf("awaitAdmission on a silent close = (%v, %v), want a plain failure", hint, err)
	}
}

func TestAwaitAdmissionRejectsOtherFrames(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	client, server := connPair(t, n)
	if _, err := server.Write(frame(t, protocol.TypePing, 0, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := awaitAdmission(client, replyBuf()); !errors.Is(err, errBadReply) {
		t.Fatalf("awaitAdmission on a ping frame: %v, want errBadReply", err)
	}
}

// TestAwaitAdmissionLeavesFollowingDataUnread: the reply read is
// frame-exact. A peer that writes real traffic in the same segment as its
// Welcome loses nothing — the next frame is still whole on the stream.
func TestAwaitAdmissionLeavesFollowingDataUnread(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	client, server := connPair(t, n)

	payload := []byte("bytes right behind the welcome")
	wire := append(frame(t, protocol.TypeWelcome, 0, 0, nil),
		frame(t, message.FirstDataType, 3, 9, payload)...)
	if _, err := server.Write(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := awaitAdmission(client, replyBuf()); err != nil {
		t.Fatalf("awaitAdmission: %v, want admitted", err)
	}
	m, err := message.Read(client, nil, message.DefaultMaxPayload)
	if err != nil {
		t.Fatalf("reading the frame behind the Welcome: %v", err)
	}
	defer m.Release()
	if !bytes.Equal(m.Payload(), payload) || m.App() != 3 || m.Seq() != 9 || m.Sender() != acceptorID {
		t.Errorf("frame behind the Welcome corrupted: %v payload=%q", m, m.Payload())
	}
}

// rawAcceptor listens on acceptorID and hands every accepted connection
// to serve, on its own goroutine; the connections are closed when the
// test ends.
func rawAcceptor(t *testing.T, n *vnet.Network, serve func(c net.Conn)) {
	t.Helper()
	ln, err := n.Listen(acceptorID.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go serve(c)
		}
	}()
}

func dialerEngine(t *testing.T, n *vnet.Network, timing Timing, mut ...func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		ID:        message.MakeID("10.0.0.1", 7000),
		Transport: VNet{Net: n},
		Algorithm: nopAlg{},
	}
	for _, m := range mut {
		m(&cfg)
	}
	e, err := NewTimed(cfg, timing)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dialAcceptor runs dialPeer toward acceptorID on an unstarted engine.
func dialAcceptor(e *Engine) (net.Conn, error) {
	s := newSender(acceptorID, 4, 0)
	return e.dialPeer(s)
}

// TestDialPeerLateBusyStillBacksOff is the late-refusal regression: the
// acceptor's Busy frame arrives 20 ms after the hello — a long-RTT path.
// The dialer must treat it as the refusal it is and hold its retry for the
// carried hint. With the 5 ms silent probe window the dialer had already
// declared itself admitted and never redialed.
func TestDialPeerLateBusyStillBacksOff(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const hint = 300 * time.Millisecond
	busy := busyFrame(t, hint)
	welcome := frame(t, protocol.TypeWelcome, 0, 0, nil)
	arrivals := make(chan time.Time, 2)
	rawAcceptor(t, n, func(c net.Conn) {
		if _, err := message.Read(c, nil, 256); err != nil {
			return
		}
		arrivals <- time.Now()
		if len(arrivals) == 1 {
			time.Sleep(20 * time.Millisecond)
			_, _ = c.Write(busy)
			c.Close()
			return
		}
		_, _ = c.Write(welcome)
	})

	e := dialerEngine(t, n, Timing{DialAttempts: 2, RetryMax: time.Second}, func(c *Config) {
		c.RetryBase = time.Millisecond // the hint, not the schedule, must pace the retry
	})
	conn, err := dialAcceptor(e)
	if err != nil {
		t.Fatalf("dialPeer: %v, want the retry after the Busy hint to be admitted", err)
	}
	conn.Close()
	if len(arrivals) != 2 {
		t.Fatalf("acceptor saw %d hellos, want 2: the late Busy was taken for an admission", len(arrivals))
	}
	first, second := <-arrivals, <-arrivals
	if gap := second.Sub(first); gap < hint {
		t.Errorf("redial came %v after the refused hello, want >= the %v hint", gap, hint)
	}
}

// TestDialPeerMuteAcceptorFailsAtHandshakeTimeout: a peer that accepts
// the transport connection, reads the hello and never answers is a failed
// attempt — after the full handshake deadline, not after some shorter guess.
func TestDialPeerMuteAcceptorFailsAtHandshakeTimeout(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	rawAcceptor(t, n, func(c net.Conn) {
		_, _ = message.Read(c, nil, 256) // take the hello, then go mute
	})
	const timeout = 150 * time.Millisecond
	e := dialerEngine(t, n, Timing{DialAttempts: 1, Handshake: timeout})
	start := time.Now()
	conn, err := dialAcceptor(e)
	elapsed := time.Since(start)
	if err == nil {
		conn.Close()
		t.Fatal("dial to a mute acceptor was admitted")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("dial error = %v, want a timeout", err)
	}
	if elapsed < timeout || elapsed > 10*timeout {
		t.Errorf("dial failed after %v, want the handshake deadline (%v)", elapsed, timeout)
	}
}

// TestDialPeerHelloWriteBounded is the unbounded-hello regression: the
// peer accepts but never reads, and the pipe is smaller than a hello
// frame, so the write blocks. The handshake deadline must bound the
// stall; before the fix the dialing goroutine hung here forever.
func TestDialPeerHelloWriteBounded(t *testing.T) {
	n := vnet.New(vnet.WithPipeCapacity(8)) // hello is HeaderSize=24 bytes: the write must block
	defer n.Close()
	rawAcceptor(t, n, func(net.Conn) {}) // accepted, never read: socket buffer stays full

	e := dialerEngine(t, n, Timing{DialAttempts: 1, Handshake: 100 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		conn, derr := dialAcceptor(e)
		if derr == nil {
			conn.Close()
		}
		done <- derr
	}()
	select {
	case derr := <-done:
		if derr == nil {
			t.Error("dial into a never-drained pipe succeeded, want a bounded write failure")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("dialPeer stuck past the handshake deadline: hello write is unbounded")
	}
}

// TestClosedDialerFailsEveryDial: a Dialer that Close has run on fails
// each later Dial before its hello goes out — a sender link between two
// attempts, an observer loop between two reconnects — so nothing it opens
// outlives its owner's Stop.
func TestClosedDialerFailsEveryDial(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	hellos := make(chan struct{}, 2)
	rawAcceptor(t, n, func(c net.Conn) {
		if m, err := message.Read(c, nil, 256); err == nil {
			m.Release()
			hellos <- struct{}{}
		}
	})
	var d Dialer
	d.Close()
	for i := 0; i < 2; i++ {
		conn, _, err := d.Dial(VNet{Net: n}, "10.0.0.1:7000", acceptorID.Addr(),
			frame(t, protocol.TypeHello, 0, 0, nil), time.Second)
		if !errors.Is(err, errDialerClosed) {
			if conn != nil {
				conn.Close()
			}
			t.Fatalf("Dial %d after Close = %v, want errDialerClosed", i+1, err)
		}
	}
	select {
	case <-hellos:
		t.Error("a closed Dialer sent a hello")
	case <-time.After(50 * time.Millisecond):
	}
}
