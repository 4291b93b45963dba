package vnet

import (
	"bytes"
	"io"
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
	p := newPipe(DefaultPipeCapacity, 0)
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
// frame one byte larger. An empty frame is taken before any buffer exists.
func TestTryWriteBuffersFillsToCapacity(t *testing.T) {
	const capacity = 4096
	for _, queued := range []int{0, 100} {
		p := newPipe(capacity, 0)
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
	p := newPipe(DefaultPipeCapacity, 0)
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
