package engine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// TestFlushReadsNothingAfterHandoff is the read-after-handoff regression. A
// successful ring push hands the message to the sender goroutine, which may
// write and release it (Release clears the payload of a pooled message)
// before the flush runs its next statement. The retry of a parked message
// used to read the message's wire length after the push: a data race under
// -race, and without it a short read that left the buffered-bytes gauge
// drifting upward by the payload size each time the sender won. The test
// plays both goroutines against a real sender ring, two slots deep, so
// nearly every message parks in the link's queue before a later flush
// pushes it: flushOut, between deliverOut's charge and the sender's credit,
// must neither touch a message after its push nor move the gauge.
func TestFlushReadsNothingAfterHandoff(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	e := dialerEngine(t, n, Timing{})
	dest := message.MakeID("10.0.0.9", 7000)
	s := newSender(dest, 2, 0)
	e.senders[dest] = s

	// The sender goroutine's part: pop, "write", release, credit.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			m, err := s.ring.Pop()
			if err != nil {
				return
			}
			e.disown(m)
		}
	}()

	const rounds = 5000
	parkedSeen := 0
	for i := 0; i < rounds; i++ {
		e.turnMu.Lock()
		e.deliverOut(sharedPool.Get(message.FirstDataType, e.id, 1, uint32(i), 512), dest)
		e.deliverOut(sharedPool.Get(message.FirstDataType, e.id, 1, uint32(i), 512), dest)
		e.deliverOut(sharedPool.Get(message.FirstDataType, e.id, 1, uint32(i), 512), dest)
		for e.flushOut(); e.parked.Load() > 0; e.flushOut() {
			parkedSeen++
			e.turnMu.Unlock()
			runtime.Gosched() // ring full: let the sender side drain
			e.turnMu.Lock()
		}
		e.turnMu.Unlock()
	}
	s.ring.Close()
	<-drained

	if parkedSeen == 0 {
		t.Error("no flush left anything parked: the test never retried a parked message")
	}
	if got := e.BufferedBytes(); got != 0 {
		t.Errorf("buffered-bytes gauge = %d after everything parked was sent and released, want 0", got)
	}
}

// TestDepartWaitsForParkedData: a message parked in a link's queue behind a
// full sender ring is outbound data the rings do not show — here the ring
// has drained since, and the parked message reaches it only on a later
// flush — so an engine holding one is not drained for departure.
func TestDepartWaitsForParkedData(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	e := dialerEngine(t, n, Timing{})
	if !e.drainedForDeparture() {
		t.Fatal("idle engine reads as not drained")
	}
	dest := message.MakeID("10.0.0.9", 7000)
	s := newSender(dest, 1, 0)
	e.senders[dest] = s

	e.turnMu.Lock()
	for i := uint32(0); i < 2; i++ {
		e.deliverOut(sharedPool.Get(message.FirstDataType, e.id, 1, i, 512), dest)
	}
	e.flushOut()
	e.turnMu.Unlock()
	if got := e.parked.Load(); got != 1 {
		t.Fatalf("%d messages parked, want 1: the ring takes one of two", got)
	}
	m, ok := s.ring.TryPop() // the sender goroutine's part: the ring drains
	if !ok {
		t.Fatal("the ring took nothing")
	}
	e.disown(m)
	if e.drainedForDeparture() {
		t.Error("drainedForDeparture = true with one message parked")
	}
	e.turnMu.Lock()
	e.dropOut(s, false)
	e.turnMu.Unlock()
	if !e.drainedForDeparture() {
		t.Error("drainedForDeparture = false after the parked message was released")
	}
	if got := e.BufferedBytes(); got != 0 {
		t.Errorf("buffered-bytes gauge = %d after everything was released, want 0", got)
	}
}

// TestParkedBacklogLeavesByInlineWrite: a backlog parked behind the full
// ring of a dialled vnet link leaves by the turn's own write once the
// sender goroutine has emptied the ring, not by a ring push and a wake-up of
// that goroutine: the backlog is the queue's head, and an idle ring is all
// an inline write needs ahead of it.
func TestParkedBacklogLeavesByInlineWrite(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	e := dialerEngine(t, n, Timing{})
	dest := message.MakeID("10.0.0.9", 7000)
	l, err := n.Listen(dest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := n.DialFrom(e.addr, dest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	const ringCap, backlog = 2, 5
	s := newSender(dest, ringCap, 0)
	s.conn = conn
	if _, err := e.newFraming(s, conn); err != nil {
		t.Fatal(err)
	}
	s.dialed.Store(true)
	e.senders[dest] = s

	e.turnMu.Lock()
	for i := uint32(0); i < ringCap+backlog; i++ {
		m := sharedPool.Get(message.FirstDataType, e.id, 1, i, 64)
		if i >= ringCap {
			e.deliverOut(m, dest)
			continue
		}
		// What the sender goroutine has not popped yet, charged as
		// deliverOut would have.
		e.buffered.Add(int64(m.WireLen()))
		s.ring.TryPush(m)
	}
	e.flushOut()
	e.turnMu.Unlock()
	c0 := e.Counters()
	if got := e.parked.Load(); got != backlog {
		t.Fatalf("%d messages parked behind the full ring, want %d", got, backlog)
	}

	// The sender goroutine's part: it pops and writes the ring's two.
	for i := 0; i < ringCap; i++ {
		m, _ := s.ring.TryPop()
		e.disown(m)
	}
	e.turnMu.Lock()
	e.flushOut()
	e.turnMu.Unlock()
	c1 := e.Counters()
	if got := e.parked.Load(); got != 0 {
		t.Errorf("%d messages still parked after a flush found the ring idle, want 0", got)
	}
	if got := c1.WrittenInline - c0.WrittenInline; got != backlog {
		t.Errorf("the flush wrote %d messages inline, want the backlog's %d", got, backlog)
	}
	if got := e.BufferedBytes(); got != 0 {
		t.Errorf("buffered-bytes gauge = %d after the backlog was written, want 0", got)
	}
	// What reached the peer is the backlog, in order.
	if err := peer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, message.HeaderSize+64)
	for seq := uint32(ringCap); seq < ringCap+backlog; seq++ {
		if _, err := io.ReadFull(peer, buf); err != nil {
			t.Fatal(err)
		}
		m := message.FromBytes(buf, sharedPool)
		if m.Seq() != seq {
			t.Errorf("frame on the wire has sequence number %d, want %d", m.Seq(), seq)
		}
		m.Release()
	}
}

// TestFullLaneHoldsBackOnlyItself: a flush keeps, in order, what a full
// lane of the link's ring refuses, and still moves the other lane's
// messages queued behind it — data behind control refused by a full
// control lane, and control behind data refused by a full data lane.
func TestFullLaneHoldsBackOnlyItself(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	e := dialerEngine(t, n, Timing{})
	dest := message.MakeID("10.0.0.9", 7000)
	s := newSender(dest, 1, 0) // one slot a lane
	e.senders[dest] = s
	ctrl := func(k int64) {
		e.deliverOut(message.New(protocol.TypeCustom, e.id, 0, 0, protocol.Custom{Kind: 1, P1: k}.Encode()), dest)
	}
	data := func(seq uint32) { e.deliverOut(sharedPool.Get(message.FirstDataType, e.id, 1, seq, 64), dest) }
	// pop takes what the sender goroutine would, control first, and
	// reports it as "c<k>" or "d<seq>".
	pop := func(ctrlOnly bool) string {
		m, ok := s.ring.TryPopCtrl()
		if !ok && !ctrlOnly {
			m, ok = s.ring.TryPop()
		}
		if !ok {
			return "none"
		}
		defer e.disown(m)
		if m.IsControl() {
			c, err := protocol.DecodeCustom(m.Payload())
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("c%d", c.P1)
		}
		return fmt.Sprintf("d%d", m.Seq())
	}
	expect := func(what string, got ...string) {
		t.Helper()
		if s := strings.Join(got, " "); s != what {
			t.Errorf("popped %q, want %q", s, what)
		}
	}
	e.turnMu.Lock()
	defer e.turnMu.Unlock()

	ctrl(0) // takes the control lane's slot
	ctrl(1) // queues behind it
	data(0)
	data(1)
	e.flushOut() // c1 refused; d0 behind it still takes the data lane
	if got := e.parked.Load(); got != 2 {
		t.Errorf("%d messages parked, want c1 and d1", got)
	}
	expect("c0 d0 none", pop(false), pop(false), pop(false))
	e.flushOut()
	expect("c1 d1 none", pop(false), pop(false), pop(false))

	data(2)
	ctrl(2)
	e.flushOut() // both lanes full
	data(3)
	ctrl(3) // the control lane is full: it queues, behind d3
	expect("c2", pop(true))
	e.flushOut() // d3 refused by the full data lane; c3 behind it goes
	expect("c3 d2 none", pop(false), pop(false), pop(false))
	e.flushOut()
	expect("d3 none", pop(false), pop(false))
	if got := e.parked.Load(); got != 0 {
		t.Errorf("%d messages parked after both lanes drained, want 0", got)
	}
	if got := e.BufferedBytes(); got != 0 {
		t.Errorf("buffered-bytes gauge = %d after everything was popped, want 0", got)
	}
}
