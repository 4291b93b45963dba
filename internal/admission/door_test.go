package admission

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// stallConn is a dialer that never drains its socket: Write blocks until
// the connection is closed, and the writes in progress are counted.
type stallConn struct {
	net.Conn // nil: only the methods below are used
	closed   chan struct{}
	once     sync.Once
	writing  *atomic.Int32
	peak     *atomic.Int32
	wrote    *atomic.Int32
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.wrote.Add(1)
	n := c.writing.Add(1)
	for {
		old := c.peak.Load()
		if n <= old || c.peak.CompareAndSwap(old, n) {
			break
		}
	}
	<-c.closed
	c.writing.Add(-1)
	return 0, net.ErrClosed
}

func (c *stallConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *stallConn) SetWriteDeadline(time.Time) error { return nil }

// TestRefuseBoundsBusyWriters: refusals arrive from the accept loop and
// from up to MaxHandshakes handshake goroutines at once, so the writer
// bound is reserved with one atomic step. However many refusals race,
// never more than maxBusyWriters write, and the rest are closed without a
// frame.
func TestRefuseBoundsBusyWriters(t *testing.T) {
	var wg sync.WaitGroup
	d := &Door{WG: &wg}
	var writing, peak, wrote atomic.Int32
	const refusals = 8 * maxBusyWriters
	conns := make([]*stallConn, refusals)
	for i := range conns {
		conns[i] = &stallConn{closed: make(chan struct{}), writing: &writing, peak: &peak, wrote: &wrote}
	}
	var callers sync.WaitGroup
	start := make(chan struct{})
	for _, c := range conns {
		callers.Add(1)
		go func(c *stallConn) {
			defer callers.Done()
			<-start
			d.Refuse(c, protocol.BusyHandshakes, time.Millisecond)
		}(c)
	}
	close(start)
	callers.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for writing.Load() < maxBusyWriters && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if got := peak.Load(); got != maxBusyWriters {
		t.Errorf("%d Busy writers at once, want exactly the bound %d", got, maxBusyWriters)
	}
	if got := wrote.Load(); got != maxBusyWriters {
		t.Errorf("%d of %d refusals were written, want %d (the rest closed silently)",
			got, refusals, maxBusyWriters)
	}
	if got := d.busyWriters.Load(); got != 0 {
		t.Errorf("busyWriters = %d after every writer finished, want 0", got)
	}
}

// TestDoorCloseInterruptsHelloReads: a dialer that connected and went mute
// holds a handshake goroutine for HelloTimeout; Close must cut that short,
// or every half-open connection would hold the owner's Stop hostage.
func TestDoorCloseInterruptsHelloReads(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const addr = "10.0.0.1:7000"
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var counters metrics.Counters
	done := make(chan struct{})
	gate := New(Config{})
	d := &Door{Gate: gate, Counters: &counters, Done: done, WG: &wg, HelloTimeout: time.Minute}
	wg.Add(1)
	go d.AcceptLoop(l, func(net.Conn, message.NodeID, uint32, *Token) {
		t.Error("a mute connection was handed over")
	})
	mute, err := n.DialFrom("10.0.9.1:1", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	deadline := time.Now().Add(2 * time.Second)
	for gate.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the mute connection never reached its hello read")
		}
		time.Sleep(time.Millisecond)
	}

	// The bound covers Close itself: a Close that waits out the hello read
	// (a handshake holding d.mu across it) must fail here, not pass late.
	close(done)
	stopped := make(chan struct{})
	go func() { d.Close(); wg.Wait(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the hello read running")
	}
	if got := gate.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after Close, want 0", got)
	}
	if got := counters.Snapshot().HandshakesFailed; got != 1 {
		t.Errorf("HandshakesFailed = %d, want 1", got)
	}
}
