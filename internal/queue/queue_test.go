package queue

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/message"
)

func mkMsg(seq uint32) *message.Msg {
	return message.New(message.FirstDataType, message.ZeroID, 0, seq, nil)
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestFIFOOrder(t *testing.T) {
	r := New(8)
	for i := uint32(0); i < 8; i++ {
		if err := r.Push(mkMsg(i)); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	for i := uint32(0); i < 8; i++ {
		m, err := r.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		if m.Seq() != i {
			t.Fatalf("Pop order: got seq %d, want %d", m.Seq(), i)
		}
	}
}

func TestWrapAround(t *testing.T) {
	r := New(3)
	seq := uint32(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.TryPush(mkMsg(seq)) {
				t.Fatal("TryPush on non-full ring failed")
			}
			seq++
		}
		for i := 0; i < 3; i++ {
			m, ok := r.TryPop()
			if !ok {
				t.Fatal("TryPop on non-empty ring failed")
			}
			want := seq - 3 + uint32(i)
			if m.Seq() != want {
				t.Fatalf("wrap order: got %d, want %d", m.Seq(), want)
			}
		}
	}
}

func TestTryPushFull(t *testing.T) {
	r := New(2)
	r.TryPush(mkMsg(0))
	r.TryPush(mkMsg(1))
	if r.TryPush(mkMsg(2)) {
		t.Error("TryPush on full ring succeeded")
	}
	if got := r.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
}

func TestTryPopEmpty(t *testing.T) {
	r := New(2)
	if _, ok := r.TryPop(); ok {
		t.Error("TryPop on empty ring succeeded")
	}
}

func TestPushBlocksUntilPop(t *testing.T) {
	r := New(1)
	if err := r.Push(mkMsg(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Push(mkMsg(1)) }()

	select {
	case <-done:
		t.Fatal("Push on full ring returned before Pop")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked Push: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Push did not unblock after Pop")
	}
}

func TestPopBlocksUntilPush(t *testing.T) {
	r := New(1)
	got := make(chan *message.Msg, 1)
	go func() {
		m, err := r.Pop()
		if err != nil {
			t.Error(err)
		}
		got <- m
	}()
	time.Sleep(10 * time.Millisecond)
	if err := r.Push(mkMsg(42)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Seq() != 42 {
			t.Errorf("Pop got seq %d, want 42", m.Seq())
		}
	case <-time.After(time.Second):
		t.Fatal("Pop did not unblock after Push")
	}
}

func TestCloseWakesBlockedPush(t *testing.T) {
	r := New(1)
	if err := r.Push(mkMsg(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Push(mkMsg(1)) }()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Push after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake blocked Push")
	}
}

func TestCloseWakesBlockedPop(t *testing.T) {
	r := New(1)
	done := make(chan error, 1)
	go func() {
		_, err := r.Pop()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Pop after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake blocked Pop")
	}
}

func TestCloseDrainSemantics(t *testing.T) {
	r := New(4)
	r.TryPush(mkMsg(1))
	r.TryPush(mkMsg(2))
	r.Close()
	if !r.Closed() {
		t.Error("Closed() = false after Close")
	}
	if r.TryPush(mkMsg(3)) {
		t.Error("TryPush succeeded on closed ring")
	}
	// Buffered messages remain poppable.
	m, err := r.Pop()
	if err != nil || m.Seq() != 1 {
		t.Fatalf("Pop after close = %v, %v; want seq 1", m, err)
	}
	if m, ok := r.TryPop(); !ok || m.Seq() != 2 {
		t.Fatalf("TryPop after close = %v, %v; want seq 2", m, ok)
	}
	if _, err := r.Pop(); !errors.Is(err, ErrClosed) {
		t.Errorf("Pop on drained closed ring: err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	r := New(1)
	r.Close()
	r.Close() // must not panic or deadlock
}

func TestDrainReleasesMessages(t *testing.T) {
	r := New(4)
	msgs := []*message.Msg{mkMsg(0), mkMsg(1), mkMsg(2)}
	var wire int64
	for _, m := range msgs {
		r.TryPush(m)
		wire += int64(m.WireLen())
	}
	if bytes := r.Drain(); bytes != wire {
		t.Fatalf("Drain() = %d bytes, want the %d of the 3 buffered messages", bytes, wire)
	}
	for i, m := range msgs {
		if m.Refs() != 0 {
			t.Errorf("msg %d refs = %d after Drain, want 0", i, m.Refs())
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len() after Drain = %d, want 0", r.Len())
	}
}

// TestConcurrentProducersConsumers hammers the ring with several producers
// and consumers and checks that every message is delivered exactly once.
func TestConcurrentProducersConsumers(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 500
	)
	r := New(16)
	var wg sync.WaitGroup
	seen := make(chan uint32, producers*perProd)

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := r.Pop()
				if err != nil {
					return
				}
				seen <- m.Seq()
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				if err := r.Push(mkMsg(uint32(p*perProd + i))); err != nil {
					t.Errorf("Push: %v", err)
					return
				}
			}
		}(p)
	}
	pwg.Wait()
	// Wait for the ring to drain, then close to release consumers.
	for r.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	r.Close()
	wg.Wait()
	close(seen)

	got := make(map[uint32]int)
	for s := range seen {
		got[s]++
	}
	if len(got) != producers*perProd {
		t.Fatalf("delivered %d distinct messages, want %d", len(got), producers*perProd)
	}
	for s, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", s, n)
		}
	}
}

// TestBatchMixedFIFO interleaves batch and single-message operations and
// checks that the overall pop order is exactly the push order.
func TestBatchMixedFIFO(t *testing.T) {
	r := New(8)
	next := uint32(0)
	mk := func(n int) []*message.Msg {
		ms := make([]*message.Msg, n)
		for i := range ms {
			ms[i] = mkMsg(next)
			next++
		}
		return ms
	}
	var got []uint32
	popOne := func() {
		m, err := r.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		got = append(got, m.Seq())
	}
	popBatch := func(n int) {
		dst := make([]*message.Msg, n)
		k := r.TryPopBatch(dst)
		for _, m := range dst[:k] {
			got = append(got, m.Seq())
		}
	}

	if n, err := r.PushBatch(mk(3)); n != 3 || err != nil {
		t.Fatalf("PushBatch = %d, %v; want 3, nil", n, err)
	}
	if err := r.Push(mk(1)[0]); err != nil {
		t.Fatal(err)
	}
	popBatch(2)
	if n := r.TryPushBatch(mk(4)); n != 4 {
		t.Fatalf("TryPushBatch = %d, want 4", n)
	}
	popOne()
	popBatch(5)
	if !r.TryPush(mk(1)[0]) {
		t.Fatal("TryPush on non-full ring failed")
	}
	popOne()

	if len(got) != int(next) {
		t.Fatalf("popped %d messages, pushed %d", len(got), next)
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("pop order: got[%d] = %d, want %d (full order %v)", i, s, i, got)
		}
	}
}

// TestTryPushBatchPartial checks that a nearly full ring accepts exactly
// the messages that fit and leaves ownership of the rest with the caller.
func TestTryPushBatchPartial(t *testing.T) {
	r := New(4)
	r.TryPush(mkMsg(100))
	r.TryPush(mkMsg(101))
	ms := []*message.Msg{mkMsg(0), mkMsg(1), mkMsg(2), mkMsg(3)}
	if n := r.TryPushBatch(ms); n != 2 {
		t.Fatalf("TryPushBatch on ring with 2 free slots = %d, want 2", n)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	// The unaccepted tail is untouched and still owned by the caller.
	for i, m := range ms[2:] {
		if m.Refs() != 1 {
			t.Errorf("unaccepted ms[%d] refs = %d, want 1", i+2, m.Refs())
		}
	}
	if n := r.TryPushBatch(ms[2:]); n != 0 {
		t.Fatalf("TryPushBatch on full ring = %d, want 0", n)
	}
	want := []uint32{100, 101, 0, 1}
	dst := make([]*message.Msg, 8)
	if n := r.TryPopBatch(dst); n != 4 {
		t.Fatalf("TryPopBatch = %d, want 4", n)
	}
	for i, m := range dst[:4] {
		if m.Seq() != want[i] {
			t.Fatalf("pop order: got %d at %d, want %d", m.Seq(), i, want[i])
		}
	}
}

// TestPopBatchPartial checks that PopBatch returns what is buffered rather
// than waiting to fill dst.
func TestPopBatchPartial(t *testing.T) {
	r := New(8)
	r.TryPush(mkMsg(0))
	r.TryPush(mkMsg(1))
	dst := make([]*message.Msg, 8)
	n, err := r.PopBatch(dst)
	if err != nil || n != 2 {
		t.Fatalf("PopBatch = %d, %v; want 2, nil", n, err)
	}
	if dst[0].Seq() != 0 || dst[1].Seq() != 1 {
		t.Fatalf("PopBatch order: %d, %d", dst[0].Seq(), dst[1].Seq())
	}
}

// TestPushBatchBlocksAndCompletes checks that an oversized PushBatch
// blocks on a full ring and delivers every message as space frees up.
func TestPushBatchBlocksAndCompletes(t *testing.T) {
	r := New(2)
	ms := make([]*message.Msg, 5)
	for i := range ms {
		ms[i] = mkMsg(uint32(i))
	}
	done := make(chan int, 1)
	go func() {
		n, err := r.PushBatch(ms)
		if err != nil {
			t.Errorf("PushBatch: %v", err)
		}
		done <- n
	}()
	var got []uint32
	for len(got) < 5 {
		m, err := r.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		got = append(got, m.Seq())
	}
	select {
	case n := <-done:
		if n != 5 {
			t.Fatalf("PushBatch accepted %d, want 5", n)
		}
	case <-time.After(time.Second):
		t.Fatal("PushBatch did not complete")
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("order: got[%d] = %d", i, s)
		}
	}
}

// TestCloseMidPushBatch closes the ring while a blocked PushBatch has
// accepted part of its batch; ownership of the unaccepted tail must stay
// with the caller so it can release those messages.
func TestCloseMidPushBatch(t *testing.T) {
	r := New(2)
	ms := make([]*message.Msg, 5)
	for i := range ms {
		ms[i] = mkMsg(uint32(i))
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := r.PushBatch(ms)
		done <- result{n, err}
	}()
	// Let the batch fill the ring (2 accepted) and block, then free one
	// slot so a third is accepted, then close mid-flight.
	time.Sleep(10 * time.Millisecond)
	if _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case res := <-done:
		if !errors.Is(res.err, ErrClosed) {
			t.Fatalf("PushBatch after Close: err = %v, want ErrClosed", res.err)
		}
		if res.n != 3 {
			t.Fatalf("PushBatch accepted %d before Close, want 3", res.n)
		}
		// ms[res.n:] still belongs to the caller: release them.
		for i, m := range ms[res.n:] {
			if m.Refs() != 1 {
				t.Errorf("unaccepted ms[%d] refs = %d, want 1", res.n+i, m.Refs())
			}
			m.Release()
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake blocked PushBatch")
	}
	// 3 accepted, 1 popped above: 2 remain buffered.
	if left := r.Len(); left != 2 {
		t.Fatalf("%d accepted messages left to drain, want 2", left)
	}
	r.Drain()
}

// TestConcurrentBatchProducersConsumers stresses mixed-size batch pushes
// against batch pops and checks exactly-once delivery; run with -race this
// also exercises the batch paths for data races.
func TestConcurrentBatchProducersConsumers(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 500
	)
	r := New(16)
	var wg sync.WaitGroup
	seen := make(chan uint32, producers*perProd)

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dst := make([]*message.Msg, 1+c%5)
			for {
				n, err := r.PopBatch(dst)
				if err != nil {
					return
				}
				for _, m := range dst[:n] {
					seen <- m.Seq()
				}
			}
		}(c)
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			seq := uint32(p * perProd)
			sent := 0
			for sent < perProd {
				k := 1 + (sent+p)%7
				if k > perProd-sent {
					k = perProd - sent
				}
				batch := make([]*message.Msg, k)
				for i := range batch {
					batch[i] = mkMsg(seq)
					seq++
				}
				if n, err := r.PushBatch(batch); err != nil {
					t.Errorf("PushBatch: %v (accepted %d)", err, n)
					return
				}
				sent += k
			}
		}(p)
	}
	pwg.Wait()
	for r.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	r.Close()
	wg.Wait()
	close(seen)

	got := make(map[uint32]int)
	for s := range seen {
		got[s]++
	}
	if len(got) != producers*perProd {
		t.Fatalf("delivered %d distinct messages, want %d", len(got), producers*perProd)
	}
	for s, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", s, n)
		}
	}
}

// TestFIFOProperty checks, via testing/quick, that for any interleaving of
// a bounded push sequence, single-consumer pop order equals push order.
func TestFIFOProperty(t *testing.T) {
	f := func(seqs []uint32, capHint uint8) bool {
		capacity := int(capHint%16) + 1
		r := New(capacity)
		done := make(chan []uint32, 1)
		go func() {
			var out []uint32
			for {
				m, err := r.Pop()
				if err != nil {
					done <- out
					return
				}
				out = append(out, m.Seq())
			}
		}()
		for _, s := range seqs {
			if err := r.Push(mkMsg(s)); err != nil {
				return false
			}
		}
		for r.Len() > 0 {
			time.Sleep(time.Microsecond)
		}
		r.Close()
		out := <-done
		if len(out) != len(seqs) {
			return false
		}
		for i := range out {
			if out[i] != seqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIdleIsEmptyAndUnheld: Idle is "open, nothing queued, nothing popped
// and not yet disposed of" — the fact a producer needs before it may go
// around the ring. The hold is taken in the pop's own critical section, so
// there is no instant at which a popped batch is in neither count.
func TestIdleIsEmptyAndUnheld(t *testing.T) {
	r := New(4)
	if !r.Idle() {
		t.Fatal("a fresh ring is not idle")
	}
	r.TryPush(mkMsg(0))
	if r.Idle() {
		t.Fatal("a ring with a queued message is idle")
	}
	dst := make([]*message.Msg, 4)
	if n, err := r.PopBatchHold(dst); n != 1 || err != nil {
		t.Fatalf("PopBatchHold = %d, %v", n, err)
	}
	if r.Len() != 0 || r.Idle() {
		t.Fatalf("after PopBatchHold: Len = %d, Idle = %v; want empty and not idle", r.Len(), r.Idle())
	}
	// The consumer's mid-batch control pops do not end the hold.
	r.TryPush(message.New(1, message.ZeroID, 0, 0, nil))
	if _, ok := r.TryPopCtrl(); !ok || r.Idle() {
		t.Fatal("TryPopCtrl failed or ended the hold")
	}
	r.Unhold()
	if !r.Idle() {
		t.Fatal("ring not idle after Unhold")
	}

	// The plain pops are for consumers nobody bypasses: they hold nothing.
	r.TryPush(mkMsg(1))
	if n, err := r.PopBatch(dst); n != 1 || err != nil || !r.Idle() {
		t.Fatalf("PopBatch = %d, %v, Idle = %v; want 1, nil, idle", n, err, r.Idle())
	}

	// A consumer asleep in PopBatchHold holds nothing either.
	popped := make(chan int)
	go func() {
		n, _ := r.PopBatchHold(dst)
		popped <- n
	}()
	time.Sleep(10 * time.Millisecond)
	if !r.Idle() {
		t.Fatal("a consumer waiting on an empty ring made it not idle")
	}
	r.TryPush(mkMsg(2))
	if n := <-popped; n != 1 || r.Idle() {
		t.Fatalf("woken PopBatchHold = %d, Idle = %v; want 1, held", n, r.Idle())
	}
	r.Unhold()

	r.Close()
	if r.Idle() {
		t.Fatal("a closed ring is idle")
	}
}

// TestIdleNeverMissesAPoppedBatch hammers the atomicity from the producer's
// side: a single producer that has seen Idle must find the consumer holding
// nothing, every time, until its own next push.
func TestIdleNeverMissesAPoppedBatch(t *testing.T) {
	r := New(4)
	const rounds = 5000
	var holding atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		dst := make([]*message.Msg, 4)
		for {
			if _, err := r.PopBatchHold(dst); err != nil {
				return
			}
			holding.Store(true)
			runtime.Gosched()
			holding.Store(false)
			r.Unhold()
		}
	}()
	missed := 0
	for i := 0; i < rounds; {
		if !r.Idle() {
			runtime.Gosched()
			continue
		}
		if holding.Load() {
			missed++
		}
		r.TryPush(mkMsg(uint32(i)))
		i++
	}
	r.Close()
	<-done
	if missed != 0 {
		t.Fatalf("Idle was true %d times while the consumer held a popped batch", missed)
	}
}
