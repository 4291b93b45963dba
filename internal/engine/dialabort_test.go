package engine_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// muteAcceptor is a raw listener that accepts the transport connection
// and then never reads or writes: the dialer's hello lands in the socket
// buffer and no admission reply ever comes back.
func muteAcceptor(t *testing.T, n *vnet.Network, id message.NodeID) <-chan net.Conn {
	t.Helper()
	ln, err := n.Listen(id.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, aerr := ln.Accept()
		if aerr == nil {
			accepted <- c
		}
	}()
	return accepted
}

// dialIntoMute starts an engine whose one outgoing link is stuck waiting
// for the mute acceptor's reply, under a HandshakeTimeout far longer than
// the test, and returns once the dial is blocked there and the message
// sent over the link waits in its sender ring. The acceptor can accept
// before the sending turn has flushed that message; a second turn that
// signals proves the flush done, since turns run in order. Without it,
// a Stop could close the ring first, and the message would park and be
// released uncounted instead of dropped with the aborted dial.
func dialIntoMute(t *testing.T, n *vnet.Network) (*engine.Engine, net.Conn) {
	t.Helper()
	accepted := muteAcceptor(t, n, nid(2))
	e := startTimedNode(t, n, nid(1), &recorder{}, engine.Timing{Handshake: time.Minute, DialAttempts: 1})
	e.Do(func(api engine.API) {
		api.SendNew(message.New(message.FirstDataType, nid(1), 1, 0, []byte("queued behind the dial")), nid(2))
	})
	flushed := make(chan struct{})
	e.Do(func(engine.API) { close(flushed) })
	var c net.Conn
	select {
	case c = <-accepted:
		t.Cleanup(func() { c.Close() })
	case <-time.After(5 * time.Second):
		t.Fatal("the engine never dialed the mute acceptor")
	}
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("the turn after the send never ran")
	}
	return e, c
}

// within fails the test unless fn returns inside d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestStopInterruptsDialAwaitingReply: Stop waits for every engine
// goroutine, and a sender goroutine blocked on an admission reply that
// will never come must not make it wait out HandshakeTimeout. Nothing the
// engine started may outlive Stop.
func TestStopInterruptsDialAwaitingReply(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	before := runtime.NumGoroutine()
	e, _ := dialIntoMute(t, n)
	within(t, 2*time.Second, "Stop with a dial awaiting its reply", e.Stop)
	// The mute acceptor's own accept goroutine has exited by now (it
	// accepts once), so the count must fall back to where it started.
	waitFor(t, 2*time.Second, "engine goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
	if lost := e.Counters().MsgsDropped; lost != 1 {
		t.Errorf("MsgsDropped = %d, want the one message queued behind the aborted dial", lost)
	}
}

// TestCloseLinkInterruptsDialAwaitingReply: closing a link that is still
// dialing hangs up on the peer now — the acceptor observes the close long
// before HandshakeTimeout — and leaves nothing behind for Stop to wait on.
func TestCloseLinkInterruptsDialAwaitingReply(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	e, server := dialIntoMute(t, n)
	within(t, 2*time.Second, "CloseLink with a dial awaiting its reply", func() {
		closed := make(chan struct{})
		e.Do(func(api engine.API) {
			api.CloseLink(nid(2))
			close(closed)
		})
		<-closed
	})
	// Only now does the acceptor touch the connection: the hello is there,
	// and behind it the dialer's hang-up.
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	hello, err := message.Read(server, nil, 256)
	if err != nil {
		t.Fatalf("reading the hello: %v", err)
	}
	hello.Release()
	if m, err := message.Read(server, nil, 256); err == nil {
		m.Release()
		t.Fatal("dialer kept talking after CloseLink")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("dialer still holds the connection after CloseLink: the reply wait was not interrupted")
	}
	within(t, 2*time.Second, "Stop after CloseLink", e.Stop)
}

// TestMuteObserverHoldsNeitherStartNorStop: an observer that accepts the
// node's connection and never answers its hello holds neither Start — the
// first attempt runs on the reconnect loop, not on Start's goroutine — nor
// Stop, which cuts the handshake short instead of sitting out its 10 s
// deadline.
func TestMuteObserverHoldsNeitherStartNorStop(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	obs := message.MakeID("10.255.0.1", 9000)
	accepted := muteAcceptor(t, n, obs)
	e, err := engine.New(engine.Config{
		ID:        nid(1),
		Transport: engine.VNet{Net: n},
		Algorithm: &recorder{},
		Observers: []message.NodeID{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	within(t, 100*time.Millisecond, "Start against a mute observer", func() {
		if err := e.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	var c net.Conn
	select {
	case c = <-accepted:
		t.Cleanup(func() { c.Close() })
	case <-time.After(5 * time.Second):
		e.Stop()
		t.Fatal("the engine never dialed the observer")
	}
	// Once the hello is in, the engine is waiting for the reply.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	hello, err := message.Read(c, nil, 256)
	if err != nil {
		e.Stop()
		t.Fatalf("reading the hello: %v", err)
	}
	hello.Release()
	within(t, time.Second, "Stop with an observer handshake awaiting its reply", e.Stop)
}
