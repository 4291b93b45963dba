package engine

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// nopAlg is the minimal algorithm for white-box engine tests.
type nopAlg struct{}

func (nopAlg) Attach(API)                     {}
func (nopAlg) Process(m *message.Msg) Verdict { return Done }

// fakeObserver is a raw listener standing in for an observer: it accepts
// connections, answers each hello with Welcome and counts the messages it
// reads, without any of the real observer's behavior. White-box tests use it because package engine
// cannot import internal/observer (import cycle).
type fakeObserver struct {
	id message.NodeID
	ln net.Listener

	mu    sync.Mutex
	types map[message.Type]int
	conns []net.Conn
}

func startFakeObserver(t *testing.T, n *vnet.Network, id message.NodeID) *fakeObserver {
	t.Helper()
	ln, err := VNet{Net: n}.Listen(id.Addr())
	if err != nil {
		t.Fatalf("fake observer listen(%s): %v", id, err)
	}
	f := &fakeObserver{id: id, ln: ln, types: make(map[message.Type]int)}
	t.Cleanup(f.close)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, c)
			f.mu.Unlock()
			go f.read(c)
		}
	}()
	return f
}

func (f *fakeObserver) read(c net.Conn) {
	hello, err := message.Read(c, nil, 256)
	if err != nil {
		return
	}
	hello.Release()
	welcome := message.New(protocol.TypeWelcome, f.id, 0, 0, nil)
	if _, err := welcome.WriteTo(c); err != nil {
		return
	}
	for {
		m, err := message.Read(c, nil, message.DefaultMaxPayload)
		if err != nil {
			return
		}
		f.mu.Lock()
		f.types[m.Type()]++
		f.mu.Unlock()
		m.Release()
	}
}

func (f *fakeObserver) count(t message.Type) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.types[t]
}

// request writes one status request on every accepted conn, as the real
// observer's request loop would.
func (f *fakeObserver) request(from message.NodeID) {
	f.mu.Lock()
	conns := append([]net.Conn(nil), f.conns...)
	f.mu.Unlock()
	for _, c := range conns {
		m := message.New(protocol.TypeRequest, from, 0, 0, nil)
		_, _ = m.WriteTo(c)
		m.Release()
	}
}

// dropConns severs every accepted connection, as a crashing observer would.
func (f *fakeObserver) dropConns() {
	f.mu.Lock()
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (f *fakeObserver) close() {
	_ = f.ln.Close()
	f.dropConns()
}

// TestObserverBackoffSeededDeterministically: two engines with the same
// identity must produce identical reconnect jitter sequences, so chaos
// schedules replay exactly; a different identity perturbs the sequence.
func TestObserverBackoffSeededDeterministically(t *testing.T) {
	mk := func(ip string) *Engine {
		n := vnet.New()
		t.Cleanup(n.Close)
		e, err := New(Config{
			ID:        message.MakeID(ip, 7000),
			Transport: VNet{Net: n},
			Algorithm: nopAlg{},
			Observers: []message.NodeID{message.MakeID("10.255.0.1", 9000)},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return e
	}
	draw := func(e *Engine, k int) []time.Duration {
		out := make([]time.Duration, k)
		for i := range out {
			out[i] = e.obsBackoff.next()
		}
		return out
	}
	a, b, c := draw(mk("10.0.0.1"), 8), draw(mk("10.0.0.1"), 8), draw(mk("10.0.0.2"), 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same identity diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different identities produced identical jitter sequences")
	}
}

// TestPendingReportsFlushAfterFailover covers the report stash: with every
// observer unreachable the engine parks outbound reports instead of
// dropping them, and flushes the stash once it re-registers with the next
// observer on the list. Nothing is dropped and the stash drains to empty.
func TestPendingReportsFlushAfterFailover(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	idA := message.MakeID("10.255.0.1", 9000) // stays dark until late
	idB := message.MakeID("10.255.0.2", 9000)
	obsB := startFakeObserver(t, n, idB)

	e, err := NewTimed(Config{
		ID:             message.MakeID("10.0.0.1", 7000),
		Transport:      VNet{Net: n},
		Algorithm:      nopAlg{},
		Observers:      []message.NodeID{idA, idB},
		StatusInterval: 15 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
	}, Timing{RetryMax: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer e.Stop()

	wait := func(d time.Duration, what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	// A is dark; the engine rotates to B and registers.
	wait(5*time.Second, "initial registration at B", func() bool {
		return obsB.count(protocol.TypeBoot) >= 1
	})
	// A status request from B draws a report, proving the reply path.
	obsB.request(idB)
	wait(5*time.Second, "report flowing to B", func() bool {
		return obsB.count(protocol.TypeReport) >= 1
	})

	// B goes dark too. Reports and an algorithm's trace must pile into
	// the stash, not the floor.
	obsB.close()
	wait(5*time.Second, "observer link torn down", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.obs == nil
	})
	const parked = 5
	for i := 0; i < parked; i++ {
		e.sendToObserver(message.New(protocol.TypeReport, e.id, 0, 0, nil))
	}
	traced := make(chan struct{})
	e.Do(func(api API) {
		api.Trace("dark %d", 2)
		close(traced)
	})
	<-traced
	var stashed int
	e.mu.Lock()
	stashed = len(e.obsPending)
	e.mu.Unlock()
	if stashed < parked+1 {
		t.Fatalf("stash holds %d messages, want at least the %d parked reports and the trace", stashed, parked)
	}
	if dropped := e.Counters().MsgsDropped; dropped != 0 {
		t.Fatalf("engine dropped %d messages while stashing", dropped)
	}

	// A finally comes up; the rotation reaches it and the stash flushes.
	obsA := startFakeObserver(t, n, idA)
	wait(5*time.Second, "stash flushed to A", func() bool {
		return obsA.count(protocol.TypeReport) >= stashed-1 && obsA.count(protocol.TypeTrace) == 1
	})
	e.mu.Lock()
	left := len(e.obsPending)
	e.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d reports still stashed after re-register", left)
	}
	if dropped := e.Counters().MsgsDropped; dropped != 0 {
		t.Fatalf("engine dropped %d messages across the failover", dropped)
	}
	wait(2*time.Second, "backoff reset after successful re-register", func() bool {
		e.mu.Lock()
		settled := e.obs != nil && !e.obsRetrying
		e.mu.Unlock()
		return settled && e.obsBackoff.attempt == 0
	})
}

// startBusyObserver is a raw listener standing in for an observer whose
// admission gate is saturated: it reads each hello, answers with a Busy
// frame carrying a 1 ms retry-after hint, and hangs up. dials counts the
// connections it refused.
func startBusyObserver(t *testing.T, n *vnet.Network, id message.NodeID, dials *atomic.Int64) {
	t.Helper()
	ln, err := VNet{Net: n}.Listen(id.Addr())
	if err != nil {
		t.Fatalf("busy observer listen(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func() {
				defer c.Close()
				hello, err := message.Read(c, nil, 256)
				if err != nil {
					return
				}
				hello.Release()
				busy := message.New(protocol.TypeBusy, id, 0, 0, protocol.Busy{
					Reason: protocol.BusyHandshakes, RetryAfterNanos: int64(time.Millisecond),
				}.Encode())
				_, _ = busy.WriteTo(c)
				busy.Release()
			}()
		}
	}()
}

// TestRefusedRegistrationKeepsBackingOff: an observer tier that answers
// every hello with Busy must see the node's redials thin out along the
// exponential schedule, and a registration that was refused is not a
// failover. Before the fix the progression restarted as soon as the hello
// was written, so every refused attempt came back RetryBase later — about
// 60 dials in this window where the schedule allows 7 — and each rotation
// to the other refusing observer was counted as a failover.
func TestRefusedRegistrationKeepsBackingOff(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	idA := message.MakeID("10.255.0.1", 9000)
	idB := message.MakeID("10.255.0.2", 9000)
	var dials atomic.Int64
	startBusyObserver(t, n, idA, &dials)
	startBusyObserver(t, n, idB, &dials)

	e, err := New(Config{
		ID:        message.MakeID("10.0.0.1", 7000),
		Transport: VNet{Net: n},
		Algorithm: nopAlg{},
		Observers: []message.NodeID{idA, idB},
		RetryBase: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer e.Stop()

	time.Sleep(1300 * time.Millisecond)
	t.Logf("%d dials in 1.3 s", dials.Load())
	if got := dials.Load(); got < 2 || got > 10 {
		t.Errorf("refusing observers were dialed %d times in 1.3 s, want 2..10 (20 ms doubling)", got)
	}
	if got := e.Counters().Failovers; got != 0 {
		t.Errorf("Failovers = %d after nothing but refusals, want 0", got)
	}
}
