package queue

import (
	"runtime"
	"sync"
	"testing"
)

func TestMPSCFIFOSingleProducer(t *testing.T) {
	q := NewMPSC[int](8)
	if q.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", q.Cap())
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push succeeded on full ring")
	}
	if got := q.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestMPSCWrapAround(t *testing.T) {
	q := NewMPSC[int](4)
	next := 0
	for round := 0; round < 1000; round++ {
		for q.TryPush(next) {
			next++
		}
		for i := 0; i < 2; i++ {
			if _, ok := q.TryPop(); !ok {
				t.Fatalf("round %d: unexpected empty", round)
			}
		}
	}
}

// TestMPSCConcurrentProducersPreservePerProducerFIFO drives several
// producers against one consumer and checks every item arrives exactly
// once and in per-producer order.
func TestMPSCConcurrentProducersPreservePerProducerFIFO(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	type item struct{ producer, seq int }
	q := NewMPSC[item](64)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !q.TryPush(item{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}

	seen := make([]int, producers)
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < producers*perProducer {
			v, ok := q.TryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v.seq != seen[v.producer] {
				t.Errorf("producer %d: got seq %d, want %d", v.producer, v.seq, seen[v.producer])
				return
			}
			seen[v.producer]++
			got++
		}
	}()
	wg.Wait()
	<-done
	if got != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", got, producers*perProducer)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func BenchmarkMPSCPushPop(b *testing.B) {
	q := NewMPSC[int](1024)
	for i := 0; i < b.N; i++ {
		if !q.TryPush(i) {
			q.TryPop()
			q.TryPush(i)
		}
		if i&1 == 1 {
			q.TryPop()
		}
	}
}
