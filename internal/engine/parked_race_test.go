package engine

import (
	"runtime"
	"testing"

	"repro/internal/message"
	"repro/internal/vnet"
)

// TestRetryParkedReadsNothingAfterHandoff is the read-after-handoff
// regression. A successful ring push hands the message to the sender
// goroutine, which may write and release it (Release clears the payload
// of a pooled message) before retryParked runs its next statement.
// retryParked used to read the message's wire length after the push: a
// data race under -race, and without it a short read that left the
// buffered-bytes gauge drifting upward by the payload size each time the
// sender won. The test plays both goroutines against a real sender ring;
// retryParked, between deliverOut's charge and the sender's credit, must
// neither touch the message after the push nor move the gauge.
func TestRetryParkedReadsNothingAfterHandoff(t *testing.T) {
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
	for i := 0; i < rounds; i++ {
		m := sharedPool.Get(message.FirstDataType, e.id, 1, uint32(i), 512)
		e.buffered.Add(int64(m.WireLen()))
		e.park(m, dest)
		for e.retryParked(); len(e.parked) > 0; e.retryParked() {
			runtime.Gosched() // ring full: let the sender side drain
		}
	}
	s.ring.Close()
	<-drained

	if got := e.BufferedBytes(); got != 0 {
		t.Errorf("buffered-bytes gauge = %d after everything parked was sent and released, want 0", got)
	}
}

// TestDepartWaitsForParkedData: a message parked behind a full sender ring
// is outbound data the rings do not show, so an engine holding one is not
// drained for departure.
func TestDepartWaitsForParkedData(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	e := dialerEngine(t, n, Timing{})
	if !e.drainedForDeparture() {
		t.Fatal("idle engine reads as not drained")
	}
	dest := message.MakeID("10.0.0.9", 7000)
	m := sharedPool.Get(message.FirstDataType, e.id, 1, 0, 512)
	e.buffered.Add(int64(m.WireLen()))
	e.park(m, dest)
	if e.drainedForDeparture() {
		t.Error("drainedForDeparture = true with one message parked")
	}
	e.dropParkedFor(dest, false)
	if !e.drainedForDeparture() {
		t.Error("drainedForDeparture = false after the parked message was released")
	}
}
