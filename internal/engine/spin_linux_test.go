//go:build linux

package engine_test

import (
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/multicast"
	"repro/internal/vnet"
)

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestNoHotSpinWhenBackPressured wedges the whole data path — an unlimited
// source, a parked backlog at its limit, and a sender blocked on a peer
// that never reads — then checks that the engine goroutine sleeps instead
// of re-arming itself into a busy loop. Before the re-arm fix, switchOnce
// would self-signalWork whenever any ring held messages, so a fully
// back-pressured node burned an entire core making no progress; the test
// asserts process CPU stays far below wall time over the window.
func TestNoHotSpinWhenBackPressured(t *testing.T) {
	n := vnet.New(vnet.WithPipeCapacity(4 << 10))
	defer n.Close()

	// A raw peer that accepts the engine's dial and reads the hello, then
	// never reads again: the sender's pipe fills and its Write blocks.
	sink := nid(2)
	l, err := n.Listen(sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := message.Read(conn, nil, 1<<20); err != nil {
			return
		}
		accepted <- conn // hold the conn open, reading nothing more
	}()

	alg := &multicast.Forwarder{DefaultRoutes: []message.NodeID{sink}}
	e := startNode(t, n, nid(1), alg, func(c *engine.Config) { c.RecvBuf, c.SendBuf = 4, 4 })
	e.StartSource(1, 0, 4<<10)

	var conn net.Conn
	select {
	case conn = <-accepted:
		defer conn.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("engine never dialed the sink")
	}
	// Let the path wedge: source ring full, parked backlog at its bound,
	// sender blocked mid-write.
	time.Sleep(200 * time.Millisecond)

	const window = 500 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(window)
	used := cpuTime(t) - before
	// A spinning engine goroutine consumes ~one full core for the whole
	// window; an idle, properly parked engine uses a small fraction.
	if used > window/2 {
		t.Fatalf("engine burned %v CPU over a %v fully back-pressured window (hot spin)", used, window)
	}
}
