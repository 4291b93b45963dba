package vnet

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// frames builds count distinguishable buffers of size bytes: frame i is
// filled with byte(first+i).
func frames(first, count, size int) [][]byte {
	bufs := make([][]byte, count)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(first + i)}, size)
	}
	return bufs
}

// TestTryWriteBuffersTakesWholeLeadingFrames: the try form takes the leading
// frames that fit whole, reports how many, leaves a frame that does not fit
// entirely alone, and on a full pipe takes nothing — without ever waiting.
func TestTryWriteBuffersTakesWholeLeadingFrames(t *testing.T) {
	n := New(WithPipeCapacity(100))
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	c := client.(*Conn)

	k, b, err := c.TryWriteBuffers(frames(0, 4, 30)) // 3 fit in 100 bytes, the 4th would be split
	if k != 3 || b != 90 || err != nil {
		t.Fatalf("TryWriteBuffers = %d frames, %d bytes, %v; want 3, 90, nil", k, b, err)
	}
	// 10 bytes are free: a 30-byte frame must not be started.
	done := make(chan struct{})
	go func() {
		defer close(done)
		k, b, err = c.TryWriteBuffers(frames(3, 1, 30))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("TryWriteBuffers blocked on a pipe without room")
	}
	if k != 0 || b != 0 || err != nil {
		t.Fatalf("TryWriteBuffers on a pipe without room = %d, %d, %v; want 0, 0, nil", k, b, err)
	}
	// A smaller frame behind a too-large one is not taken out of order.
	if k, _, _ := c.TryWriteBuffers([][]byte{make([]byte, 30), make([]byte, 5)}); k != 0 {
		t.Fatalf("took %d frames past one that did not fit", k)
	}
	got := make([]byte, 90)
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(frames(0, 3, 30), nil); !bytes.Equal(got, want) {
		t.Fatal("bytes read differ from the three frames taken")
	}
	// Drained: the rest fits now.
	if k, b, err := c.TryWriteBuffers(frames(3, 1, 30)); k != 1 || b != 30 || err != nil {
		t.Fatalf("after drain TryWriteBuffers = %d, %d, %v; want 1, 30, nil", k, b, err)
	}
}

// TestTryWriteBuffersWakesAReader: a reader asleep on an empty pipe is woken
// by a try-write like by any other.
func TestTryWriteBuffersWakesAReader(t *testing.T) {
	n := New()
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		k, _ := io.ReadFull(server, buf)
		got <- buf[:k]
	}()
	time.Sleep(10 * time.Millisecond) // let the reader go to sleep
	if k, _, err := client.(*Conn).TryWriteBuffers([][]byte{[]byte("try-"), []byte("sent")}); k != 2 || err != nil {
		t.Fatalf("TryWriteBuffers = %d, %v", k, err)
	}
	select {
	case b := <-got:
		if string(b) != "try-sent" {
			t.Fatalf("read %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader never woke")
	}
}

// TestTryWriteBuffersHonoursFaultsAndLatency: Flaky drops are decided per
// frame and reported as taken; bytes written become readable only after the
// pipe's latency; a closed or broken connection is an error, not "full".
func TestTryWriteBuffersHonoursFaultsAndLatency(t *testing.T) {
	t.Run("flaky drops per frame", func(t *testing.T) {
		n := New()
		defer n.Close()
		const a, b = "10.0.0.1:7000", "10.0.0.2:7000"
		client, server := pairFrom(t, n, a, b)
		c := client.(*Conn)
		// Drop every second frame, deterministically.
		calls := 0
		c.wr.setFault(func(int) bool { calls++; return calls%2 == 0 }, time.Time{})
		k, by, err := c.TryWriteBuffers(frames(0, 6, 10))
		if k != 6 || by != 60 || err != nil {
			t.Fatalf("TryWriteBuffers = %d, %d, %v; want all 6 frames reported taken", k, by, err)
		}
		got := make([]byte, 30)
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatal(err)
		}
		want := bytes.Join([][]byte{frames(0, 1, 10)[0], frames(2, 1, 10)[0], frames(4, 1, 10)[0]}, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %v, want frames 0, 2 and 4 whole", got)
		}
		server.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		if k, _ := server.Read(got); k != 0 {
			t.Fatalf("%d more bytes delivered: a dropped frame leaked", k)
		}
	})
	t.Run("latency marks", func(t *testing.T) {
		const lat = 60 * time.Millisecond
		n := New(constantLatency(lat))
		defer n.Close()
		client, server := pair(t, n, "10.0.0.1:7000")
		start := time.Now()
		if k, _, err := client.(*Conn).TryWriteBuffers(frames(0, 2, 8)); k != 2 || err != nil {
			t.Fatalf("TryWriteBuffers = %d, %v", k, err)
		}
		if _, err := io.ReadFull(server, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < lat {
			t.Errorf("try-written bytes readable after %v, want >= %v", d, lat)
		}
	})
	t.Run("closed and broken", func(t *testing.T) {
		n := New()
		defer n.Close()
		client, _ := pair(t, n, "10.0.0.1:7000")
		client.Close()
		if k, _, err := client.(*Conn).TryWriteBuffers(frames(0, 1, 8)); k != 0 || !errors.Is(err, ErrPipeClosed) {
			t.Errorf("after Close: %d frames, %v; want 0, ErrPipeClosed", k, err)
		}
		const a, b = "10.0.0.3:7000", "10.0.0.4:7000"
		client, _ = pairFrom(t, n, a, b)
		n.Sever(a, b)
		if k, _, err := client.(*Conn).TryWriteBuffers(frames(0, 1, 8)); k != 0 || !errors.Is(err, ErrPipeClosed) {
			t.Errorf("after Sever: %d frames, %v; want 0, ErrPipeClosed", k, err)
		}
	})
}

// TestTryWriteBuffersInterleavesWithBlockingWrites: one goroutine writes
// frames with the blocking WriteBuffers, waiting on a small pipe in the
// middle of frames, while another try-writes its own. Every frame must
// arrive whole — the try form takes nothing while a blocking write is
// parked, possibly mid-frame — and each writer's frames in its own order.
func TestTryWriteBuffersInterleavesWithBlockingWrites(t *testing.T) {
	n := New(WithPipeCapacity(64))
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	c := client.(*Conn)
	// 64 is not a multiple of 24, so blocking writes split frames. A frame
	// is filled with its tag: the writer's base plus its sequence mod 100.
	const size, perWriter, blockingBase, tryBase = 24, 300, 0, 100
	frame := func(base, seq int) []byte { return bytes.Repeat([]byte{byte(base + seq%100)}, size) }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; i += 3 {
			bufs := [][]byte{frame(blockingBase, i), frame(blockingBase, i+1), frame(blockingBase, i+2)}
			if _, err := c.WriteBuffers(bufs); err != nil {
				return // the reader reports what is missing
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; {
			k, _, err := c.TryWriteBuffers([][]byte{frame(tryBase, i)})
			if err != nil {
				return
			}
			if k == 0 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			i++
		}
	}()

	buf := make([]byte, size)
	next := map[int]int{blockingBase: 0, tryBase: 0}
	for i := 0; i < 2*perWriter; i++ {
		if _, err := io.ReadFull(server, buf); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		base := blockingBase
		if buf[0] >= tryBase {
			base = tryBase
		}
		if !bytes.Equal(buf, frame(base, next[base])) {
			t.Fatalf("frame %d: got %v, want frame %d of the writer at base %d whole and in order", i, buf, next[base], base)
		}
		next[base]++
	}
	wg.Wait()
}

// TestWriteBuffersFillsAndDrainsAFullPipe: the vectored write wakes the
// reader once per call and once before each wait, so a batch larger than
// the pipe still gets through to a reader that sleeps between reads.
func TestWriteBuffersFillsAndDrainsAFullPipe(t *testing.T) {
	n := New(WithPipeCapacity(128))
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	bufs := frames(0, 40, 50) // 2000 bytes through a 128-byte pipe
	errc := make(chan error, 1)
	go func() {
		_, err := client.(*Conn).WriteBuffers(bufs)
		errc <- err
	}()
	got := make([]byte, 2000)
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Join(bufs, nil)) {
		t.Fatal("bytes read differ from bytes written")
	}
}
