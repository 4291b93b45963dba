package queue

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/message"
)

// mkCtrl builds a control-class message (reserved type range).
func mkCtrl(seq uint32) *message.Msg {
	return message.New(message.Type(5), message.ZeroID, 0, seq, nil)
}

// mkData builds a data message with a payload so gauge tests see real
// wire volume.
func mkData(seq uint32, size int) *message.Msg {
	return message.New(message.FirstDataType, message.ZeroID, 0, seq, make([]byte, size))
}

func TestControlPopsBeforeQueuedData(t *testing.T) {
	r := New(8)
	for i := uint32(0); i < 4; i++ {
		if err := r.Push(mkMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Push(mkCtrl(100)); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(mkCtrl(101)); err != nil {
		t.Fatal(err)
	}
	// Control overtakes the queued data, in control-FIFO order; the data
	// follows in its own FIFO order.
	want := []uint32{100, 101, 0, 1, 2, 3}
	for i, w := range want {
		m, err := r.Pop()
		if err != nil {
			t.Fatalf("Pop %d: %v", i, err)
		}
		if m.Seq() != w {
			t.Fatalf("pop %d: got seq %d, want %d", i, m.Seq(), w)
		}
	}
}

// TestControlPushNeverBlocksOnDataFullRing runs at a capacity within a
// lane's first slots and at one the data lane reaches by growing.
func TestControlPushNeverBlocksOnDataFullRing(t *testing.T) {
	for _, capacity := range []int{2, 64} {
		r := New(capacity)
		for i := 0; i < capacity; i++ {
			if err := r.Push(mkMsg(uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Data lane is full; a blocking control push must complete instantly.
		done := make(chan error, 1)
		go func() { done <- r.Push(mkCtrl(999)) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("capacity %d: control Push on data-full ring: %v", capacity, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("capacity %d: control Push blocked behind full data lane", capacity)
		}
		if m, err := r.Pop(); err != nil || m.Seq() != 999 {
			t.Fatalf("capacity %d: Pop = %v, %v; want the control message (seq 999)", capacity, m, err)
		}
	}
}

func TestExplicitControlTagSurvivesLaneRouting(t *testing.T) {
	r := New(2)
	r.TryPush(mkMsg(0))
	r.TryPush(mkMsg(1))
	// A data-range type tagged AsControl rides the priority lane.
	tagged := message.New(message.FirstDataType.AsControl(), message.ZeroID, 0, 7, nil)
	if !r.TryPush(tagged) {
		t.Fatal("tagged control rejected by data-full ring")
	}
	m, err := r.Pop()
	if err != nil || m.Seq() != 7 {
		t.Fatalf("Pop = %v, %v; want tagged control first", m, err)
	}
}

func TestPopBatchServesControlLaneFirst(t *testing.T) {
	r := New(8)
	for i := uint32(0); i < 3; i++ {
		r.TryPush(mkMsg(i))
	}
	r.TryPush(mkCtrl(50))
	r.TryPush(mkCtrl(51))
	dst := make([]*message.Msg, 8)
	n, err := r.PopBatch(dst)
	if err != nil || n != 5 {
		t.Fatalf("PopBatch = %d, %v; want 5, nil", n, err)
	}
	want := []uint32{50, 51, 0, 1, 2}
	for i, w := range want {
		if dst[i].Seq() != w {
			t.Fatalf("batch[%d] = seq %d, want %d", i, dst[i].Seq(), w)
		}
	}
}

func TestDelaysTrackedPerLane(t *testing.T) {
	r := New(8)
	r.TryPush(mkMsg(0))
	time.Sleep(30 * time.Millisecond)
	r.TryPush(mkCtrl(1))
	// Pop both: data sat ~30ms, control ~0.
	if _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	ctrl, data := r.Delays()
	if data < 10*time.Millisecond {
		t.Fatalf("data delay = %v, want >= 10ms", data)
	}
	if ctrl >= data {
		t.Fatalf("ctrl delay %v not below data delay %v", ctrl, data)
	}
}

// TestCloseWakesAllBlockedWaitersBothLanes blocks producers on both full
// lanes plus batch variants, closes once, and requires every waiter to
// return ErrClosed promptly — no waiter may be woken twice into a spurious
// retry or left asleep.
func TestCloseWakesAllBlockedWaitersBothLanes(t *testing.T) {
	r := New(1)
	if err := r.Push(mkMsg(0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(mkCtrl(100)); err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	errs := make(chan error, 4*waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(4)
		go func() { defer wg.Done(); errs <- r.Push(mkMsg(1)) }()
		go func() { defer wg.Done(); errs <- r.Push(mkCtrl(101)) }()
		go func() {
			defer wg.Done()
			_, err := r.PushBatch([]*message.Msg{mkMsg(2), mkMsg(3)})
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := r.PushBatch([]*message.Msg{mkCtrl(102)})
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	r.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close left blocked waiters asleep")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked waiter returned %v, want ErrClosed", err)
		}
	}
	// Residual messages drain in lane order: control first, then data.
	if m, err := r.Pop(); err != nil || m.Seq() != 100 {
		t.Fatalf("residual pop 1 = %v, %v; want ctrl seq 100", m, err)
	}
	if m, err := r.Pop(); err != nil || m.Seq() != 0 {
		t.Fatalf("residual pop 2 = %v, %v; want data seq 0", m, err)
	}
	if _, err := r.Pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed ring Pop err = %v, want ErrClosed", err)
	}
}

// TestCloseWakesBlockedPopBatch covers the consumer side: batch poppers
// asleep on an empty ring all wake with ErrClosed.
func TestCloseWakesBlockedPopBatch(t *testing.T) {
	r := New(4)
	const waiters = 4
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]*message.Msg, 2)
			_, err := r.PopBatch(dst)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	r.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close left blocked PopBatch waiters asleep")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked PopBatch returned %v, want ErrClosed", err)
		}
	}
}

// TestLaneFIFOWithinClassUnderConcurrency hammers both lanes and checks
// per-class FIFO order with a single consumer.
func TestLaneFIFOWithinClassUnderConcurrency(t *testing.T) {
	const perClass = 400
	r := New(8)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint32(0); i < perClass; i++ {
			if err := r.Push(mkMsg(i)); err != nil {
				t.Errorf("data Push: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint32(0); i < perClass; i++ {
			if err := r.Push(mkCtrl(i)); err != nil {
				t.Errorf("ctrl Push: %v", err)
				return
			}
		}
	}()
	var ctrlSeen, dataSeen []uint32
	for len(ctrlSeen)+len(dataSeen) < 2*perClass {
		m, err := r.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		if m.IsControl() {
			ctrlSeen = append(ctrlSeen, m.Seq())
		} else {
			dataSeen = append(dataSeen, m.Seq())
		}
	}
	wg.Wait()
	for i, s := range ctrlSeen {
		if s != uint32(i) {
			t.Fatalf("ctrl FIFO violated at %d: got %d", i, s)
		}
	}
	for i, s := range dataSeen {
		if s != uint32(i) {
			t.Fatalf("data FIFO violated at %d: got %d", i, s)
		}
	}
}
