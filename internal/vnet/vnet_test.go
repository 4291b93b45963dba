package vnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// constantLatency gives every connection the same one-way latency d.
func constantLatency(d time.Duration) Option {
	return WithLatencyFunc(func(a, b string) time.Duration { return d })
}

func pair(t *testing.T, n *Network, address string) (client, server net.Conn) {
	t.Helper()
	l, err := n.Listen(address)
	if err != nil {
		t.Fatalf("Listen(%s): %v", address, err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		accepted <- c
	}()
	client, err = n.Dial(address)
	if err != nil {
		t.Fatalf("Dial(%s): %v", address, err)
	}
	select {
	case server = <-accepted:
	case <-time.After(time.Second):
		t.Fatal("Accept timed out")
	}
	return client, server
}

func TestBasicExchange(t *testing.T) {
	n := New()
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")

	msg := []byte("hello from client")
	go func() {
		if _, err := client.Write(msg); err != nil {
			t.Errorf("Write: %v", err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("got %q, want %q", buf, msg)
	}

	// And the other direction.
	reply := []byte("hello from server")
	go func() {
		if _, err := server.Write(reply); err != nil {
			t.Errorf("Write: %v", err)
		}
	}()
	buf = make([]byte, len(reply))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(buf, reply) {
		t.Errorf("got %q, want %q", buf, reply)
	}
}

func TestDialUnknownAddressRefused(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Dial("10.0.0.9:1"); !errors.Is(err, ErrConnectionRefused) {
		t.Errorf("Dial unknown: err = %v, want ErrConnectionRefused", err)
	}
}

func TestListenDuplicateAddress(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Listen("10.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("10.0.0.1:1"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate Listen: err = %v, want ErrAddrInUse", err)
	}
}

func TestListenerCloseFreesAddress(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("10.0.0.1:1"); err != nil {
		t.Errorf("Listen after Close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Errorf("Accept after Close: err = %v, want ErrListenerClosed", err)
	}
}

// TestBacklogRefusesPastBound: a listener queues up to maxBacklog dialed
// connections; the next dial is refused as "backlog full" until Accept
// takes one.
func TestBacklogRefusesPastBound(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxBacklog; i++ {
		if _, err := n.Dial("10.0.0.1:1"); err != nil {
			t.Fatalf("dial %d of %d: %v", i+1, maxBacklog, err)
		}
	}
	_, err = n.Dial("10.0.0.1:1")
	if !errors.Is(err, ErrConnectionRefused) || !strings.Contains(err.Error(), "backlog full") {
		t.Fatalf("dial %d: err = %v, want a refusal for a full backlog", maxBacklog+1, err)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("10.0.0.1:1"); err != nil {
		t.Errorf("dial after an Accept freed a slot: %v", err)
	}
	if _, err := n.Dial("10.0.0.1:1"); err == nil {
		t.Error("dial past the bound again succeeded")
	}
}

// TestAcceptIsFIFO: Accept hands connections out in dial order, across
// the backlog's growth and across a full backlog whose head has moved on,
// and returns ErrListenerClosed after Close, also to an Accept already
// waiting.
func TestAcceptIsFIFO(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	dialed, accepted := 0, 0
	dial := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if _, err := n.DialFrom(fmt.Sprintf("10.0.1.%d:1", dialed), "10.0.0.1:1"); err != nil {
				t.Fatalf("dial %d: %v", dialed, err)
			}
			dialed++
		}
	}
	accept := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			c, err := l.Accept()
			if err != nil {
				t.Fatalf("accept %d: %v", accepted, err)
			}
			if got, want := c.RemoteAddr().String(), fmt.Sprintf("10.0.1.%d:1", accepted); got != want {
				t.Fatalf("accept %d came from %s, want %s", accepted, got, want)
			}
			accepted++
		}
	}
	dial(3)
	accept(2)
	dial(maxBacklog - 1) // fills the backlog with its head moved on
	accept(100)
	dial(100)
	accept(maxBacklog)
	if dialed != accepted {
		t.Fatalf("dialed %d, accepted %d", dialed, accepted)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrListenerClosed) {
			t.Errorf("waiting Accept: err = %v, want ErrListenerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release a waiting Accept")
	}
	if _, err := l.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Errorf("Accept after Close: err = %v, want ErrListenerClosed", err)
	}
}

// TestListenerCloseBreaksQueued: closing a listener breaks every
// connection still waiting in its backlog, so their dialers see the
// connection fail instead of hanging.
func TestListenerCloseBreaksQueued(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]net.Conn, 5)
	for i := range clients {
		if clients[i], err = n.Dial("10.0.0.1:1"); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	for i, c := range clients {
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrPipeClosed) {
			t.Errorf("client %d: Write err = %v, want ErrPipeClosed", i, err)
		}
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrPipeClosed) {
			t.Errorf("client %d: Read err = %v, want ErrPipeClosed", i, err)
		}
	}
}

func TestDialFromCarriesLocalAddress(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := n.DialFrom("10.0.0.1:7000", "10.0.0.2:7000"); err != nil {
			t.Errorf("DialFrom: %v", err)
		}
	}()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if got := server.RemoteAddr().String(); got != "10.0.0.1:7000" {
		t.Errorf("server RemoteAddr = %s, want 10.0.0.1:7000", got)
	}
	if got := server.LocalAddr().String(); got != "10.0.0.2:7000" {
		t.Errorf("server LocalAddr = %s, want 10.0.0.2:7000", got)
	}
}

func TestBackPressureBlocksWriter(t *testing.T) {
	n := New(WithPipeCapacity(1024))
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")

	wrote := make(chan struct{})
	go func() {
		// 4 KiB into a 1 KiB pipe must block until the reader drains.
		if _, err := client.Write(make([]byte, 4096)); err != nil {
			t.Errorf("Write: %v", err)
		}
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("oversized Write completed without reader")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := io.ReadFull(server, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wrote:
	case <-time.After(time.Second):
		t.Fatal("Write did not unblock after drain")
	}
}

func TestGracefulCloseDeliversEOFAfterDrain(t *testing.T) {
	n := New()
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")

	if _, err := client.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("ReadFull after close: %v", err)
	}
	if string(buf) != "tail" {
		t.Errorf("drained %q, want %q", buf, "tail")
	}
	if _, err := server.Read(buf); !errors.Is(err, io.EOF) {
		t.Errorf("Read after drain: err = %v, want io.EOF", err)
	}
}

func TestSeverBreaksBothEnds(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err := n.DialFrom("10.0.0.1:7000", "10.0.0.2:7000")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
	case <-time.After(time.Second):
		t.Fatal("Accept timed out")
	}
	if _, err := client.Write([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if broken := n.Sever("10.0.0.1:7000", "10.0.0.2:7000"); broken != 2 {
		t.Fatalf("Sever broke %d endpoints, want 2", broken)
	}
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("Read after sever: err = %v, want ErrPipeClosed", err)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("Write after sever: err = %v, want ErrPipeClosed", err)
	}
}

func TestSeverNodeBreaksAllAndRefusesDials(t *testing.T) {
	n := New()
	defer n.Close()
	_, server := pair(t, n, "10.0.0.1:7000")
	n.SeverNode("10.0.0.1:7000")
	if _, err := server.Read(make([]byte, 1)); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("server Read after node sever: err = %v, want ErrPipeClosed", err)
	}
	if _, err := n.Dial("10.0.0.1:7000"); !errors.Is(err, ErrConnectionRefused) {
		t.Errorf("Dial severed node: err = %v, want ErrConnectionRefused", err)
	}
}

func TestNetworkCloseRefusesEverything(t *testing.T) {
	n := New()
	client, _ := pair(t, n, "10.0.0.1:7000")
	n.Close()
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("Read after network close: err = %v, want ErrPipeClosed", err)
	}
	if _, err := n.Dial("10.0.0.1:7000"); !errors.Is(err, ErrNetworkDown) {
		t.Errorf("Dial after network close: err = %v, want ErrNetworkDown", err)
	}
	if _, err := n.Listen("10.0.0.3:1"); !errors.Is(err, ErrNetworkDown) {
		t.Errorf("Listen after network close: err = %v, want ErrNetworkDown", err)
	}
	n.Close() // idempotent
}

func TestReadDeadline(t *testing.T) {
	n := New()
	defer n.Close()
	client, _ := pair(t, n, "10.0.0.1:7000")
	if err := client.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := client.Read(make([]byte, 1))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Read past deadline: err = %v, want timeout net.Error", err)
	}
	// Clearing the deadline re-enables reads.
	if err := client.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDeadline(t *testing.T) {
	n := New(WithPipeCapacity(8))
	defer n.Close()
	client, _ := pair(t, n, "10.0.0.1:7000")
	if err := client.SetWriteDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := client.Write(make([]byte, 64))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Write past deadline on full pipe: err = %v, want timeout", err)
	}
}

// TestDeadlineSetUnderBlockedCall: a deadline set while a Read or Write is
// already blocked must cut that call short — the net.Conn contract. The
// wake-up timer used to be armed once at call entry for the deadline in
// force then, so such a call slept until the peer did something.
func TestDeadlineSetUnderBlockedCall(t *testing.T) {
	n := New(WithPipeCapacity(8))
	defer n.Close()
	client, _ := pair(t, n, "10.0.0.1:7000")
	c := client.(*Conn)
	waiting := func(p *pipe, waiters *int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			p.mu.Lock()
			w := *waiters
			p.mu.Unlock()
			if w > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("call never blocked")
			}
			time.Sleep(time.Millisecond)
		}
	}
	isTimeout := func(err error) bool {
		var nerr net.Error
		return errors.As(err, &nerr) && nerr.Timeout()
	}

	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	waiting(c.rd, &c.rd.readWaiters)
	if err := c.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !isTimeout(err) {
			t.Errorf("blocked Read: err = %v, want timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read still blocked 2 s after a 30 ms deadline set under it")
	}

	go func() {
		_, err := c.Write(make([]byte, 64)) // 8-byte pipe, nobody reading
		errc <- err
	}()
	waiting(c.wr, &c.wr.writeWaiters)
	if err := c.SetWriteDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !isTimeout(err) {
			t.Errorf("blocked Write: err = %v, want timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Write still blocked 2 s after a 30 ms deadline set under it")
	}
}

func TestStreamIntegrityUnderChunking(t *testing.T) {
	// Property: any sequence of writes is received as the identical byte
	// stream regardless of chunk boundaries, through a small pipe.
	f := func(chunks [][]byte) bool {
		n := New(WithPipeCapacity(64))
		defer n.Close()
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		l, err := n.Listen("h:1")
		if err != nil {
			return false
		}
		done := make(chan []byte, 1)
		go func() {
			s, err := l.Accept()
			if err != nil {
				done <- nil
				return
			}
			got, _ := io.ReadAll(s)
			done <- got
		}()
		c, err := n.Dial("h:1")
		if err != nil {
			return false
		}
		for _, chunk := range chunks {
			if _, err := c.Write(chunk); err != nil {
				return false
			}
		}
		c.Close()
		got := <-done
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	n := New()
	defer n.Close()
	l, err := n.Listen("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < clients; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				buf := make([]byte, 8)
				if _, err := io.ReadFull(c, buf); err != nil {
					t.Errorf("server read: %v", err)
					return
				}
				if _, err := c.Write(buf); err != nil {
					t.Errorf("server write: %v", err)
				}
			}(c)
		}
	}()
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			c, err := n.Dial("hub:1")
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			out := []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
			if _, err := c.Write(out); err != nil {
				t.Errorf("client write: %v", err)
				return
			}
			in := make([]byte, 8)
			if _, err := io.ReadFull(c, in); err != nil {
				t.Errorf("client read: %v", err)
				return
			}
			if !bytes.Equal(in, out) {
				t.Errorf("echo mismatch for client %d", i)
			}
		}(i)
	}
	cwg.Wait()
	wg.Wait()
}

func TestConstantLatencyDelaysDelivery(t *testing.T) {
	const lat = 60 * time.Millisecond
	n := New(constantLatency(lat))
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")

	start := time.Now()
	if _, err := client.Write([]byte("delayed")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < lat {
		t.Errorf("delivery after %v, want >= %v", elapsed, lat)
	}
	if elapsed > lat+200*time.Millisecond {
		t.Errorf("delivery after %v, far beyond latency", elapsed)
	}
	if string(buf) != "delayed" {
		t.Errorf("payload %q", buf)
	}
}

func TestLatencyFuncPerPair(t *testing.T) {
	n := New(WithLatencyFunc(func(a, b string) time.Duration {
		if a == "10.0.0.1:7000" {
			return 80 * time.Millisecond
		}
		return 0
	}))
	defer n.Close()
	l, err := n.Listen("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1)
				if _, err := io.ReadFull(c, buf); err == nil {
					_, _ = c.Write(buf)
				}
			}()
		}
	}()
	rtt := func(local string) time.Duration {
		c, err := n.DialFrom(local, "hub:1")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := c.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	slow := rtt("10.0.0.1:7000")
	fast := rtt("10.0.0.2:7000")
	if slow < 160*time.Millisecond {
		t.Errorf("slow pair RTT = %v, want >= 160ms (2x80ms)", slow)
	}
	if fast > 50*time.Millisecond {
		t.Errorf("fast pair RTT = %v, want near zero", fast)
	}
}

func TestLatencyEOFAfterDrain(t *testing.T) {
	n := New(constantLatency(30 * time.Millisecond))
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	if _, err := client.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	// The in-flight bytes must still arrive (after their latency), then EOF.
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("read after close: %v", err)
	}
	if string(buf) != "tail" {
		t.Errorf("drained %q", buf)
	}
	if _, err := server.Read(buf); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}
