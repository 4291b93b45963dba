package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1} {
		h.Observe(v) // all land in bucket 0
	}
	h.Observe(2)
	h.Observe(3)
	h.Observe(1024)
	h.Observe(int64(1024 * time.Nanosecond))
	h.Observe(1 << 62) // clamps to the last bucket

	s := h.Snapshot()
	if s.Counts[0] != 3 {
		t.Fatalf("bucket 0 = %d, want 3", s.Counts[0])
	}
	if s.Counts[1] != 2 {
		t.Fatalf("bucket 1 = %d, want 2", s.Counts[1])
	}
	if s.Counts[10] != 2 {
		t.Fatalf("bucket 10 = %d, want 2", s.Counts[10])
	}
	if s.Counts[HistogramBuckets-1] != 1 {
		t.Fatalf("last bucket = %d, want 1", s.Counts[HistogramBuckets-1])
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
}

func TestHistogramNilIsNoop(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if got := h.Snapshot().Count(); got != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	// 90 fast observations (bucket 3: [8,16)) and 10 slow (bucket 20).
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 16 {
		t.Fatalf("p50 = %d, want 16", got)
	}
	if got := s.Quantile(0.99); got != 2<<20 {
		t.Fatalf("p99 = %d, want %d", got, 2<<20)
	}
}

func TestHistogramMergeSub(t *testing.T) {
	var a, b Histogram
	a.Observe(4)
	a.Observe(4)
	b.Observe(4)
	b.Observe(100)
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counts[2] != 3 || s.Count() != 4 {
		t.Fatalf("after merge: %v", s)
	}
	s.Sub(b.Snapshot())
	if s.Counts[2] != 2 || s.Count() != 2 {
		t.Fatalf("after sub: %v", s)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().String(); got != "[]" {
		t.Fatalf("empty = %q", got)
	}
	h.Observe(0)
	h.Observe(9)
	h.Observe(9)
	if got := h.Snapshot().String(); got != "[0:1 8:2]" {
		t.Fatalf("got %q, want %q", got, "[0:1 8:2]")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 10000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != 40000 {
		t.Fatalf("count = %d, want 40000", got)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(1234) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %v times per run, want 0", allocs)
	}
}
