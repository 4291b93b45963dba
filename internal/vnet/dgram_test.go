package vnet

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func mustListenPacket(t *testing.T, n *Network, address string) net.PacketConn {
	t.Helper()
	p, err := n.ListenPacket(address)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drainPackets reads until the endpoint stays silent for the grace
// window, returning every payload in arrival order.
func drainPackets(t *testing.T, p net.PacketConn, grace time.Duration) []string {
	t.Helper()
	var got []string
	buf := make([]byte, 2048)
	for {
		p.SetReadDeadline(time.Now().Add(grace))
		n, _, err := p.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return got
			}
			t.Fatal(err)
		}
		got = append(got, string(buf[:n]))
	}
}

// TestDgramRoundTrip sends packets both ways and checks payloads and
// source attribution.
func TestDgramRoundTrip(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")

	if _, err := a.WriteTo([]byte("ping"), addr("10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nr, from, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "ping" || from.String() != "10.0.0.1:7000" {
		t.Fatalf("got %q from %v", buf[:nr], from)
	}
	if _, err := b.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	nr, from, err = a.ReadFrom(buf)
	if err != nil || string(buf[:nr]) != "pong" || from.String() != "10.0.0.2:7000" {
		t.Fatalf("reply: %q from %v err %v", buf[:nr], from, err)
	}
}

// TestDgramReadDeadline: an expired deadline fails immediately with a
// net.Error whose Timeout() is true; a future deadline bounds the wait.
func TestDgramReadDeadline(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	buf := make([]byte, 16)

	a.SetReadDeadline(time.Now().Add(-time.Second))
	if _, _, err := a.ReadFrom(buf); err == nil {
		t.Fatal("read past deadline succeeded")
	} else {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("deadline error %v is not a net timeout", err)
		}
	}

	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if _, _, err := a.ReadFrom(buf); err == nil {
		t.Fatal("read on silent endpoint succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline read blocked %v", elapsed)
	}
}

// TestDgramBlackHole: writes to unbound, cut, partitioned, and crashed
// destinations all succeed and deliver nothing — datagram sockets do
// not learn about unreachable peers.
func TestDgramBlackHole(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")

	if _, err := a.WriteTo([]byte("x"), addr("10.9.9.9:1")); err != nil {
		t.Fatalf("write to unbound address: %v", err)
	}

	n.Cut("10.0.0.1:7000", "10.0.0.2:7000")
	if _, err := a.WriteTo([]byte("cut"), addr("10.0.0.2:7000")); err != nil {
		t.Fatalf("write across cut: %v", err)
	}
	n.Heal()

	n.Partition([]string{"10.0.0.1:7000"}, []string{"10.0.0.2:7000"})
	if _, err := a.WriteTo([]byte("part"), addr("10.0.0.2:7000")); err != nil {
		t.Fatalf("write across partition: %v", err)
	}
	n.Heal()

	// After healing, delivery resumes on the same endpoints.
	if _, err := a.WriteTo([]byte("healed"), addr("10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	if got := drainPackets(t, b, 50*time.Millisecond); len(got) != 1 || got[0] != "healed" {
		t.Fatalf("after heal got %q, want only the healed packet", got)
	}
}

// TestDgramCrashAndRebind: CrashNode closes the endpoint; writes toward
// a crashed address vanish; rebinding restarts it.
func TestDgramCrashAndRebind(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")

	n.CrashNode("10.0.0.2:7000")
	buf := make([]byte, 16)
	if _, _, err := b.ReadFrom(buf); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on crashed endpoint: %v, want net.ErrClosed", err)
	}
	if _, err := a.WriteTo([]byte("gone"), addr("10.0.0.2:7000")); err != nil {
		t.Fatalf("write toward crashed node: %v", err)
	}

	b2 := mustListenPacket(t, n, "10.0.0.2:7000") // restart
	if _, err := a.WriteTo([]byte("back"), addr("10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	if got := drainPackets(t, b2, 50*time.Millisecond); len(got) != 1 || got[0] != "back" {
		t.Fatalf("after rebind got %q", got)
	}
	_ = a
}

// TestDgramFaultMatrix sweeps the seeded drop and duplicate faults and
// checks delivery counts land near the configured probabilities.
func TestDgramFaultMatrix(t *testing.T) {
	cases := []struct {
		name      string
		drop, dup float64
		sent      int
		lo, hi    int // acceptable delivered range
	}{
		{"clean", 0, 0, 400, 400, 400},
		{"drop-half", 0.5, 0, 400, 140, 260},
		{"drop-light", 0.01, 0, 400, 380, 400},
		{"dup-all", 0, 1.0, 200, 400, 400},
		{"drop-and-dup", 0.25, 0.25, 400, 280, 480},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New(WithSeed(7))
			defer n.Close()
			a := mustListenPacket(t, n, "10.0.0.1:7000")
			b := mustListenPacket(t, n, "10.0.0.2:7000")
			n.DgramFaults("10.0.0.1:7000", "10.0.0.2:7000", tc.drop, tc.dup, 0)

			recvd := make(chan int, 1)
			go func() {
				recvd <- len(drainPackets(t, b, 100*time.Millisecond))
			}()
			for i := 0; i < tc.sent; i++ {
				if _, err := a.WriteTo([]byte(fmt.Sprintf("p%04d", i)), addr("10.0.0.2:7000")); err != nil {
					t.Error(err)
					return
				}
			}
			got := <-recvd
			if got < tc.lo || got > tc.hi {
				t.Fatalf("delivered %d of %d sent (drop=%.2f dup=%.2f), want [%d, %d]",
					got, tc.sent, tc.drop, tc.dup, tc.lo, tc.hi)
			}
		})
	}
}

// TestDgramReorder: with reorder probability 1 consecutive packets swap
// pairwise — the held packet is released right after its successor.
func TestDgramReorder(t *testing.T) {
	n := New(WithSeed(3))
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")
	n.DgramFaults("10.0.0.1:7000", "10.0.0.2:7000", 0, 0, 1.0)

	for _, payload := range []string{"first", "second"} {
		if _, err := a.WriteTo([]byte(payload), addr("10.0.0.2:7000")); err != nil {
			t.Fatal(err)
		}
	}
	got := drainPackets(t, b, 100*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2 (reorder must delay, never lose)", len(got))
	}
	if got[0] != "second" || got[1] != "first" {
		t.Fatalf("arrival order %v, want [second first]", got)
	}
}

// TestDgramReorderTimerFlush: a held packet with no successor is
// released by the flush timer, so reorder alone never strands traffic.
func TestDgramReorderTimerFlush(t *testing.T) {
	n := New(WithSeed(3))
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")
	n.DgramFaults("10.0.0.1:7000", "10.0.0.2:7000", 0, 0, 1.0)

	if _, err := a.WriteTo([]byte("lone"), addr("10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	nr, _, err := b.ReadFrom(buf)
	if err != nil || string(buf[:nr]) != "lone" {
		t.Fatalf("held packet never flushed: %q err %v", buf[:nr], err)
	}
}

// TestDgramHealReleasesHeld: Heal delivers (not drops) a packet the
// reorder fault was holding.
func TestDgramHealReleasesHeld(t *testing.T) {
	n := New(WithSeed(3))
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")
	n.DgramFaults("10.0.0.1:7000", "10.0.0.2:7000", 0, 0, 1.0)

	if _, err := a.WriteTo([]byte("held"), addr("10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	n.Heal()
	if got := drainPackets(t, b, 100*time.Millisecond); len(got) != 1 || got[0] != "held" {
		t.Fatalf("after heal got %q, want the held packet", got)
	}
}

// TestDgramInboxOverflow: arrivals past the inbox bound are dropped and
// counted; earlier packets are unaffected.
func TestDgramInboxOverflow(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")

	total := DefaultDgramInbox + 50
	for i := 0; i < total; i++ {
		if _, err := a.WriteTo([]byte("x"), addr("10.0.0.2:7000")); err != nil {
			t.Fatal(err)
		}
	}
	got := drainPackets(t, b, 50*time.Millisecond)
	if len(got) != DefaultDgramInbox {
		t.Fatalf("delivered %d, want exactly the inbox bound %d", len(got), DefaultDgramInbox)
	}
	if d := b.(*PacketConn).DropsFull(); d != 50 {
		t.Fatalf("counted %d overflow drops, want 50", d)
	}
}

// TestDgramTruncation: a packet larger than the read buffer is cut to
// fit, not errored.
func TestDgramTruncation(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")
	if _, err := a.WriteTo([]byte("0123456789"), addr("10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	b.SetReadDeadline(time.Now().Add(time.Second))
	nr, _, err := b.ReadFrom(buf)
	if err != nil || nr != 4 || string(buf[:nr]) != "0123" {
		t.Fatalf("truncated read: n=%d %q err=%v", nr, buf[:nr], err)
	}
}

// TestDgramBindConflicts: double-binding an address fails; a stream
// listener and a datagram endpoint share an address fine (separate
// namespaces, like TCP and UDP ports).
func TestDgramBindConflicts(t *testing.T) {
	n := New()
	defer n.Close()
	mustListenPacket(t, n, "10.0.0.1:7000")
	if _, err := n.ListenPacket("10.0.0.1:7000"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double bind: %v, want ErrAddrInUse", err)
	}
	if _, err := n.Listen("10.0.0.1:7000"); err != nil {
		t.Fatalf("stream listener on the datagram address: %v", err)
	}
}

// TestDgramClosedEndpoint: writes and reads on a closed endpoint fail
// with net.ErrClosed; writing to a closed destination is a black hole.
func TestDgramClosedEndpoint(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")
	b.Close()
	if _, err := a.WriteTo([]byte("x"), addr("10.0.0.2:7000")); err != nil {
		t.Fatalf("write to closed destination: %v", err)
	}
	a.Close()
	if _, err := a.WriteTo([]byte("x"), addr("10.0.0.2:7000")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write on closed endpoint: %v", err)
	}
	buf := make([]byte, 8)
	if _, _, err := a.ReadFrom(buf); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on closed endpoint: %v", err)
	}
	// The address is free again.
	mustListenPacket(t, n, "10.0.0.1:7000")
}

// TestDgramSteadyReadsAllocateNothing: a reader that takes packets one at a
// time, or fewer at a time than a batch holds, keeps the unread tail in one
// queue that it reuses. (It used to advance a slice past each packet read,
// so nearly every multi-packet batch re-allocated the queue: one allocation
// per batch on both read paths.)
func TestDgramSteadyReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers on purpose")
	}
	n := New()
	defer n.Close()
	a := mustListenPacket(t, n, "10.0.0.1:7000")
	b := mustListenPacket(t, n, "10.0.0.2:7000")
	to := Addr("10.0.0.2:7000") // boxed once, as a caller would
	const perBatch = 8
	bufs := make([][]byte, perBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 1024)
	}
	send := func() {
		if _, err := a.(*PacketConn).WriteToBatch(bufs, to); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]byte, 2048)
	readFrom := func() {
		send()
		for i := 0; i < perBatch; i++ {
			if _, _, err := b.ReadFrom(buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	dst := make([]Dgram, 3) // smaller than a batch: every call leaves a tail
	tryRead := func() {
		send()
		for got := 0; got < perBatch; {
			k := b.(*PacketConn).TryReadDgrams(dst)
			if k == 0 {
				t.Fatalf("%d of %d packets read, then none queued", got, perBatch)
			}
			for i := range dst[:k] {
				dst[i].Release()
				dst[i] = Dgram{}
			}
			got += k
		}
	}
	for name, read := range map[string]func(){"ReadFrom": readFrom, "TryReadDgrams": tryRead} {
		if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
			t.Errorf("%s: %.2f allocations per %d-packet batch read, want 0", name, allocs, perBatch)
		}
	}
}
