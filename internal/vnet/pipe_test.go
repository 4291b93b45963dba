package vnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/message"
)

// seq returns size bytes counting up from start, mod 251, so that a byte
// read out of order, twice or not at all shows as a mismatch.
func seq(start, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte((start + i) % 251)
	}
	return b
}

// testPipe is an empty pipe of its own, outside any connection.
func testPipe(capacity int, latency time.Duration) *pipe {
	p := new(pipe)
	p.init(capacity, latency)
	return p
}

// buffered reports how many bytes p holds and how large its buffer is.
func buffered(p *pipe) (length, size int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.length, len(p.buf)
}

// TestBlockingWriteStopsAtCapacity: a write of one byte more than the
// capacity fills the pipe to exactly the capacity, its buffer grown to the
// bound and no further, and returns only once the reader takes a byte.
func TestBlockingWriteStopsAtCapacity(t *testing.T) {
	p := testPipe(DefaultPipeCapacity, 0)
	want := seq(0, DefaultPipeCapacity+1)
	done := make(chan error, 1)
	go func() {
		_, err := p.Write(want)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		p.mu.Lock()
		parked := p.writeWaiters > 0
		p.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the writer never parked on the full pipe")
		}
		time.Sleep(time.Millisecond)
	}
	if length, size := buffered(p); length != DefaultPipeCapacity || size != DefaultPipeCapacity {
		t.Fatalf("parked writer left %d bytes in a %d-byte buffer; want both %d", length, size, DefaultPipeCapacity)
	}
	select {
	case err := <-done:
		t.Fatalf("a write past the capacity returned (%v) before the reader took a byte", err)
	case <-time.After(20 * time.Millisecond):
	}
	got := make([]byte, len(want))
	if n, err := p.Read(got[:1]); n != 1 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the write did not return after the reader took a byte")
	}
	if length, _ := buffered(p); length != DefaultPipeCapacity {
		t.Fatalf("%d bytes buffered after the write finished, want %d", length, DefaultPipeCapacity)
	}
	if _, err := io.ReadFull(p, got[1:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes read differ from bytes written")
	}
}

// TestTryWriteBuffersFillsToCapacity: the try form takes a frame that
// fills the pipe exactly, from empty or after other bytes, and refuses a
// frame one byte larger. An empty frame is taken by a fresh pipe.
func TestTryWriteBuffersFillsToCapacity(t *testing.T) {
	const capacity = 4096
	for _, queued := range []int{0, 100} {
		p := testPipe(capacity, 0)
		if k, b, err := p.tryWriteBuffers([][]byte{{}}); k != 1 || b != 0 || err != nil {
			t.Fatalf("an empty frame gave %d frames, %d bytes, %v; want 1, 0, nil", k, b, err)
		}
		if queued > 0 {
			if k, _, err := p.tryWriteBuffers([][]byte{make([]byte, queued)}); k != 1 || err != nil {
				t.Fatalf("queueing %d bytes: %d frames, %v", queued, k, err)
			}
		}
		room := capacity - queued
		if k, _, err := p.tryWriteBuffers([][]byte{make([]byte, room+1)}); k != 0 || err != nil {
			t.Fatalf("%d bytes queued: a %d-byte frame was taken (%d, %v), want refused", queued, room+1, k, err)
		}
		if k, b, err := p.tryWriteBuffers([][]byte{make([]byte, room)}); k != 1 || b != int64(room) || err != nil {
			t.Fatalf("%d bytes queued: a %d-byte frame gave %d frames, %d bytes, %v; want 1, %d, nil", queued, room, k, b, err, room)
		}
		if length, size := buffered(p); length != capacity || size != capacity {
			t.Fatalf("%d bytes queued: filled pipe holds %d bytes in a %d-byte buffer; want both %d", queued, length, size, capacity)
		}
		if k, _, err := p.tryWriteBuffers([][]byte{make([]byte, 1)}); k != 0 || err != nil {
			t.Fatalf("%d bytes queued: a full pipe took a 1-byte frame (%d, %v)", queued, k, err)
		}
	}
}

// TestGrowKeepsWrappedBytesInOrder: when the buffer grows while its
// contents wrap round the end of the ring, the bytes still come out in
// the order they went in.
func TestGrowKeepsWrappedBytesInOrder(t *testing.T) {
	p := testPipe(DefaultPipeCapacity, 0)
	want := seq(0, 3*minPipeBuf)
	in, out := 0, 0
	write := func(n int) {
		t.Helper()
		if w, err := p.Write(want[in : in+n]); w != n || err != nil {
			t.Fatalf("Write(%d) = %d, %v", n, w, err)
		}
		in += n
	}
	got := make([]byte, len(want))
	read := func(n int) {
		t.Helper()
		if _, err := io.ReadFull(p, got[out:out+n]); err != nil {
			t.Fatal(err)
		}
		out += n
	}

	write(minPipeBuf * 3 / 4)
	read(minPipeBuf / 2)
	write(minPipeBuf / 2)
	p.mu.Lock()
	head, length, size := p.head, p.length, len(p.buf)
	p.mu.Unlock()
	if size != minPipeBuf || head == 0 || head+length <= size {
		t.Fatalf("set-up: head %d, %d bytes in a %d-byte buffer; want a wrapped %d-byte ring", head, length, size, minPipeBuf)
	}
	write(minPipeBuf) // more than the ring has room for: it grows
	if _, size := buffered(p); size <= minPipeBuf {
		t.Fatalf("buffer is %d bytes, want it grown past %d", size, minPipeBuf)
	}
	read(in - out)
	if !bytes.Equal(got[:out], want[:in]) {
		t.Fatal("bytes read differ from bytes written across a grow of a wrapped ring")
	}
}

// TestPipeFootprintOfAHandshake: a connection that has carried only a
// hello one way and a Welcome the other holds at most 4 KiB of buffer
// across both directions, however large its capacity.
func TestPipeFootprintOfAHandshake(t *testing.T) {
	n := New()
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	frame := make([]byte, message.HeaderSize)
	for _, hop := range []struct{ from, to io.ReadWriter }{{client, server}, {server, client}} {
		if _, err := hop.from.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(hop.to, frame); err != nil {
			t.Fatal(err)
		}
	}
	c := client.(*Conn)
	_, out := buffered(c.wr)
	_, in := buffered(c.rd)
	if out+in > 4<<10 {
		t.Fatalf("a handshake-only connection holds %d + %d bytes of pipe buffer, want at most 4096 in all", out, in)
	}
}

// TestDialAcceptAllocations is the tripwire on what a vnet connection costs
// the heap: DialFrom, Accept, the peer's address as the admission gate
// reads it, one 24-byte frame each way under a deadline, and Close on both
// ends. A dialled connection is one object — both endpoints, both pipes
// with their first buffers, both addresses — so a link that carries only a
// handshake allocates nothing else.
//
// Readings on a 2-core x86-64 host over 25 runs: 1 object per connection
// every time. The bound is the highest reading plus a quarter, rounded up.
// While each connection was two Conns and two pipes, each pipe's first
// write allocated its buffer and RemoteAddr boxed the address on every
// call, the same loop read 7.
func TestDialAcceptAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const maxAllocs = 2
	n := New()
	defer n.Close()
	const address, dialer = "10.0.0.1:7000", "10.0.0.2:7000"
	l, err := n.Listen(address)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, message.HeaderSize)
	got := make([]byte, message.HeaderSize)
	var failed error
	cycle := func() {
		client, err := n.DialFrom(dialer, address)
		if err != nil {
			failed = err
			return
		}
		server, err := l.Accept()
		if err != nil {
			failed = err
			return
		}
		if a := server.RemoteAddr(); a.String() != dialer {
			failed = fmt.Errorf("accepted connection's remote address is %v, want %s", a, dialer)
		}
		deadline := time.Now().Add(time.Minute)
		_ = client.SetDeadline(deadline)
		_ = server.SetDeadline(deadline)
		for _, hop := range [2][2]net.Conn{{client, server}, {server, client}} {
			if _, err := hop[0].Write(frame); err != nil {
				failed = err
			}
			if _, err := io.ReadFull(hop[1], got); err != nil {
				failed = err
			}
		}
		_ = client.Close()
		_ = server.Close()
	}
	cycle() // the listener's backlog and the network's connection set grow once
	allocs := testing.AllocsPerRun(200, cycle)
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%.0f objects per dialled, accepted, used and closed connection", allocs)
	if allocs >= maxAllocs {
		t.Errorf("%.0f objects per connection, want < %d: a vnet connection allocates more again", allocs, maxAllocs)
	}
}
