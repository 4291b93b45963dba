package engine

import (
	"runtime"
	"testing"

	"repro/internal/message"
)

// TestRetryParkedReadsNothingAfterHandoff is the read-after-handoff
// regression. A successful ring push hands the message to the sender
// goroutine, which may write and release it (Release clears the payload
// of a pooled message) before retryParked runs its next statement.
// retryParked used to read the message's wire length after the push: a
// data race under -race, and without it a short read that left the
// buffered-bytes gauge drifting upward by the payload size each time the
// sender won. The test plays both goroutines against a real sender ring.
func TestRetryParkedReadsNothingAfterHandoff(t *testing.T) {
	e := newStashEngine(t, 1)
	sh := e.shards[0]
	dest := message.MakeID("10.0.0.9", 7000)
	s := newSender(dest, 2, 0, &e.bufBytes, &e.heldBytes)
	s.sh = sh
	e.senders[dest] = s

	// The sender goroutine's part: pop, "write", release, settle.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			m, err := s.ring.Pop()
			if err != nil {
				return
			}
			wl := int64(m.WireLen())
			m.Release()
			e.heldBytes.Add(-wl)
		}
	}()

	const rounds = 5000
	for i := 0; i < rounds; i++ {
		sh.park(e.pool.Get(message.FirstDataType, e.id, 1, uint32(i), 512), dest)
		for sh.retryParked(); len(sh.parked) > 0; sh.retryParked() {
			runtime.Gosched() // ring full: let the sender side drain
		}
	}
	s.ring.Close()
	<-drained

	if got := e.bufBytes.Load(); got != 0 {
		t.Errorf("buffered-bytes gauge = %d after everything parked was sent and released, want 0", got)
	}
	if got := e.heldBytes.Load(); got != 0 {
		t.Errorf("held-bytes gauge = %d, want 0", got)
	}
}
