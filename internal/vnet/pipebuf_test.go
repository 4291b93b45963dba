package vnet

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
)

// lent reports whether p holds a buffer borrowed from pipeBufs.
func lent(p *pipe) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lent != nil
}

// TestGracefulCloseKeepsPendingBuffer: a Close with 48 KiB still queued
// toward the peer leaves every byte readable, then EOF, and the pipe keeps
// its borrowed buffer until the reading end closes too. Giving the buffer
// back at the writer's Close would hand those bytes to the next pipe that
// grows.
func TestGracefulCloseKeepsPendingBuffer(t *testing.T) {
	n := New()
	defer n.Close()
	client, server := pair(t, n, "10.0.0.1:7000")
	want := seq(7, 48<<10)
	if _, err := client.Write(want); err != nil {
		t.Fatal(err)
	}
	a2b := client.(*Conn).wr
	if !lent(a2b) {
		t.Fatal("a pipe holding 48 KiB has no borrowed buffer")
	}
	_ = client.Close()
	if !lent(a2b) {
		t.Fatal("the writer's Close gave the buffer back with 48 KiB still unread")
	}
	// Another connection grows its pipes meanwhile: were the buffer back
	// in the pool, it would be this one's now, and overwritten.
	other, otherPeer := pairFrom(t, n, "10.0.0.3:7000", "10.0.0.4:7000")
	if _, err := other.Write(seq(100, 48<<10)); err != nil {
		t.Fatal(err)
	}
	_ = other.Close()
	_ = otherPeer.Close()

	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("ReadAll after a graceful Close: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes after a graceful Close, want the %d written, in order", len(got), len(want))
	}
	if !lent(a2b) {
		t.Fatal("the buffer went back before the reading end closed")
	}
	_ = server.Close()
	if lent(a2b) {
		t.Fatal("the buffer was not given back when the reading end closed")
	}
}

// TestPooledBuffersStayWithTheirPipe: over many rounds, connections carry
// traffic both ways while each round closes or breaks them under their
// writers and readers, so buffers pass from dying pipes to growing ones
// all the time. Every reader must see a prefix of what its own writer
// wrote: a byte from another pipe, or from a buffer written after it was
// given back, breaks the sequence.
func TestPooledBuffersStayWithTheirPipe(t *testing.T) {
	const rounds, conns = 40, 6
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:7000")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	stream := func(k int) []byte { return seq(k*37, 160<<10) }

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4*conns)
		for k := 0; k < conns; k++ {
			client, err := n.Dial("10.0.0.1:7000")
			if err != nil {
				t.Fatal(err)
			}
			server, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			for d, ends := range [2][2]net.Conn{{client, server}, {server, client}} {
				want := stream(2*k + d)
				chunk := 1 + rng.Intn(20<<10)
				wg.Add(2)
				go func(w net.Conn) {
					defer wg.Done()
					for off := 0; off < len(want); off += chunk {
						if _, err := w.Write(want[off:min(off+chunk, len(want))]); err != nil {
							return
						}
					}
				}(ends[0])
				go func(rd net.Conn) {
					defer wg.Done()
					got := make([]byte, 0, len(want))
					buf := make([]byte, 8<<10)
					for {
						m, err := rd.Read(buf)
						got = append(got, buf[:m]...)
						if err != nil {
							break
						}
					}
					if !bytes.Equal(got, want[:len(got)]) {
						errs <- io.ErrUnexpectedEOF
					}
				}(ends[1])
			}
			// End the connection some way, some time into its traffic.
			how, after := rng.Intn(3), rng.Intn(200)
			wg.Add(1)
			go func(client, server *Conn) {
				defer wg.Done()
				for i := 0; i < after; i++ {
					runtime.Gosched()
				}
				switch how {
				case 0:
					client.breakConn()
				case 1:
					_ = client.Close()
					_ = server.Close()
				default:
					_ = server.Close()
					_ = client.Close()
				}
			}(client.(*Conn), server.(*Conn))
		}
		wg.Wait()
		close(errs)
		if len(errs) > 0 {
			t.Fatalf("round %d: %d readers saw bytes their writer never wrote there", r, len(errs))
		}
	}
}

// TestClosedConnectionsReuseBuffers is the tripwire on the pipe buffer
// pool: 200 cycles of dial, 32 KiB one way, read, close on both ends
// allocate at most 1 KiB of pipe buffer per cycle, because the buffers a
// closed connection grew are what the next one grows into. The pipe
// buffer is the cycle's bytes less those of the same cycle carrying one
// 24-byte frame, which never leaves a pipe's first buffer. Without the
// pool each cycle grew a fresh 32 KiB buffer (32.0 KiB per cycle).
func TestClosedConnectionsReuseBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops what it is handed")
	}
	const cycles, maxKiB = 200, 1.0
	n := New()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:7000")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32<<10)
	var failed error
	cycle := func(payload []byte) {
		client, err := n.DialFrom("10.0.0.2:7000", "10.0.0.1:7000")
		if err == nil {
			var server net.Conn
			if server, err = l.Accept(); err == nil {
				if _, err = client.Write(payload); err == nil {
					_, err = io.ReadFull(server, got[:len(payload)])
				}
				_ = client.Close()
				_ = server.Close()
			}
		}
		if err != nil {
			failed = err
		}
	}
	bytesPer := func(payload []byte) float64 {
		cycle(payload) // the first cycle grows the buffers the rest reuse
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle(payload)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / cycles
	}
	handshake := bytesPer(seq(0, 24))
	bulk := bytesPer(seq(0, 32<<10))
	if failed != nil {
		t.Fatal(failed)
	}
	kib := (bulk - handshake) / 1024
	t.Logf("%.2f KiB of pipe buffer per 32 KiB connection (%.0f B per cycle, %.0f B with a 24-byte frame)", kib, bulk, handshake)
	if kib > maxKiB {
		t.Errorf("%.2f KiB of pipe buffer per closed 32 KiB connection, want at most %g: closed connections no longer give their buffers back", kib, maxKiB)
	}
}
