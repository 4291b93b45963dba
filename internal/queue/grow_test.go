package queue

import (
	"testing"
	"time"

	"repro/internal/message"
)

// TestGrownLaneKeepsFIFOAndBound pushes a lane to its capacity one message
// at a time, popping one for every two pushed, so the lane's head has moved
// on and its window wraps whenever a push finds its slots full: every
// growth has to move a wrapped window to the front in order. Past the
// capacity the lane refuses TryPush and holds Push until a pop, exactly as
// a lane built at full size did.
func TestGrownLaneKeepsFIFOAndBound(t *testing.T) {
	for _, lane := range []struct {
		name string
		mk   func(uint32) *message.Msg
	}{{"data", mkMsg}, {"ctrl", mkCtrl}} {
		t.Run(lane.name, func(t *testing.T) {
			const capacity = 64
			r := New(capacity)
			if got := r.Cap(); got != capacity {
				t.Fatalf("Cap() = %d before any push, want %d", got, capacity)
			}
			var pushed, popped uint32
			pop := func() {
				t.Helper()
				m, ok := r.TryPop()
				if !ok || m == nil || m.Seq() != popped {
					t.Fatalf("pop %d: got %v, %v; want seq %d", popped, m, ok, popped)
				}
				popped++
			}
			for r.Len() < capacity {
				if !r.TryPush(lane.mk(pushed)) {
					t.Fatalf("TryPush %d refused with %d of %d queued", pushed, r.Len(), capacity)
				}
				pushed++
				if pushed%2 == 0 && r.Len() < capacity {
					pop()
				}
			}
			if r.TryPush(lane.mk(pushed)) {
				t.Fatalf("TryPush past capacity %d accepted", capacity)
			}
			if got := r.Cap(); got != capacity {
				t.Fatalf("Cap() = %d once grown, want %d", got, capacity)
			}
			done := make(chan error, 1)
			go func() { done <- r.Push(lane.mk(pushed)) }()
			select {
			case <-done:
				t.Fatal("Push past capacity returned before a pop")
			case <-time.After(20 * time.Millisecond):
			}
			pop()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("blocked Push: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Push did not unblock after a pop")
			}
			pushed++
			for popped < pushed {
				pop()
			}
			if _, ok := r.TryPop(); ok {
				t.Fatal("ring not empty after every pushed message was popped")
			}
		})
	}
}

// TestRingAllocatesOnlyWhatItHolds: Init allocates nothing, so a link's
// ring that never queues anything costs its link nothing, and a lane's
// first push allocates its first slots, one object.
func TestRingAllocatesOnlyWhatItHolds(t *testing.T) {
	const runs = 100
	rings := make([]Ring, runs+1) // AllocsPerRun calls its function runs+1 times
	i := 0
	if a := testing.AllocsPerRun(runs, func() {
		rings[i].Init(64)
		i++
	}); a != 0 {
		t.Errorf("Init: %.1f allocations, want 0", a)
	}
	for _, m := range []*message.Msg{mkMsg(0), mkCtrl(0)} {
		i = 0
		if a := testing.AllocsPerRun(runs, func() {
			rings[i].TryPush(m)
			i++
		}); a > 1 {
			t.Errorf("first push (control %v): %.1f allocations, want at most 1", m.IsControl(), a)
		}
	}
}
