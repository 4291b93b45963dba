package engine

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
)

// pipeLink builds a Link over one end of a net.Pipe. Nothing reads the far
// end unless the test does, so the writer blocks on its first flush and
// everything sent after that stays queued.
func pipeLink(t *testing.T, capacity int) (*Link, net.Conn, *sync.WaitGroup) {
	t.Helper()
	near, far := net.Pipe()
	var wg sync.WaitGroup
	l := NewLink(near, capacity, &wg)
	t.Cleanup(func() {
		l.Close()
		_ = far.Close()
		wg.Wait()
	})
	return l, far, &wg
}

func report(seq uint32) *message.Msg {
	return message.New(protocol.TypeReport, message.MakeID("10.0.0.1", 7000), 0, seq, nil)
}

func waitQueued(t *testing.T, l *Link, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.Queued() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Queued() = %d, want %d", l.Queued(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLinkSendNeverBlocks: with the writer stuck on a peer that does not
// read, Send fills the ring and then refuses — at once, leaving the
// message with the caller.
func TestLinkSendNeverBlocks(t *testing.T) {
	const capacity = 4
	l, _, _ := pipeLink(t, capacity)
	if !l.Send(report(0)) {
		t.Fatal("Send on an empty link refused")
	}
	waitQueued(t, l, 0) // the writer holds it, blocked in its flush
	for i := 1; i <= capacity; i++ {
		if !l.Send(report(uint32(i))) {
			t.Fatalf("Send %d refused with %d of %d queued", i, l.Queued(), capacity)
		}
	}
	over := report(99)
	refused := make(chan bool, 1)
	go func() { refused <- !l.Send(over) }()
	select {
	case ok := <-refused:
		if !ok {
			t.Fatal("Send on a full ring accepted the message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send on a full ring blocked")
	}
	over.Release()
	if got := l.Queued(); got != capacity {
		t.Fatalf("Queued() = %d after the refusal, want %d", got, capacity)
	}
}

// writeFailConn fails every write while its reads keep blocking on the
// underlying connection: the one-sided failure that only the link's
// teardown rule turns into a reader wake-up.
type writeFailConn struct{ net.Conn }

func (writeFailConn) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestLinkWriteErrorWakesReader: a write error closes the connection, so
// the owner's blocked Read returns and the link retires as a whole.
func TestLinkWriteErrorWakesReader(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	var wg sync.WaitGroup
	l := NewLink(writeFailConn{near}, 4, &wg)
	readErr := make(chan error, 1)
	go func() {
		_, err := l.Read()
		readErr <- err
	}()
	select {
	case err := <-readErr:
		t.Fatalf("Read returned (%v) before anything failed", err)
	case <-time.After(20 * time.Millisecond):
	}
	if !l.Send(report(0)) {
		t.Fatal("Send refused on a fresh link")
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("Read delivered a message from a peer that sent none")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after the write error")
	}
	wg.Wait()
	if !l.Closed() {
		t.Error("link not closed after its writer failed")
	}
	m := report(1)
	if l.Send(m) {
		t.Error("Send accepted a message on a failed link")
	} else {
		m.Release()
	}
}

// TestLinkUnsentKeepsOrder: closing a link with messages queued behind a
// stuck write hands exactly those messages back, oldest first — what the
// engine's failover stash carries to the next observer.
func TestLinkUnsentKeepsOrder(t *testing.T) {
	l, _, wg := pipeLink(t, 8)
	l.Send(report(0))
	waitQueued(t, l, 0) // in the writer's hands, not salvageable
	for seq := uint32(1); seq <= 5; seq++ {
		l.Send(report(seq))
	}
	l.Close()
	wg.Wait()
	left := l.Unsent()
	if len(left) != 5 {
		t.Fatalf("Unsent returned %d messages, want 5", len(left))
	}
	for i, m := range left {
		if m.Seq() != uint32(i+1) {
			t.Errorf("Unsent[%d].Seq = %d, want %d", i, m.Seq(), i+1)
		}
		m.Release()
	}
	if again := l.Unsent(); len(again) != 0 {
		t.Errorf("second Unsent returned %d messages, want 0", len(again))
	}
	if _, err := l.Read(); err == nil {
		t.Error("Read succeeded on a closed link")
	}
}
