package bandwidth

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// rateOf measures the achieved rate of transferring n bytes through f.
func rateOf(t *testing.T, n int, f func([]byte)) float64 {
	t.Helper()
	start := time.Now()
	f(make([]byte, n))
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		t.Fatal("transfer finished instantaneously; cannot measure")
	}
	return float64(n) / elapsed
}

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	lo, hi := want*(1-frac), want*(1+frac)
	if got < lo || got > hi {
		t.Errorf("%s = %.0f B/s, want within [%.0f, %.0f]", name, got, lo, hi)
	}
}

func TestLimiterEnforcesRate(t *testing.T) {
	const rate = 200 << 10 // 200 KiB/s
	l := NewLimiter(rate)
	defer l.Close()
	got := rateOf(t, 60<<10, func(b []byte) {
		for off := 0; off < len(b); off += 4096 {
			l.Wait(4096)
		}
	})
	within(t, "limited rate", got, rate, 0.25)
}

func TestUnlimitedLimiterDoesNotBlock(t *testing.T) {
	l := NewLimiter(Unlimited)
	defer l.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			l.Wait(1 << 20)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unlimited limiter blocked")
	}
}

func TestWaitLargerThanBucket(t *testing.T) {
	// A single Wait far larger than the bucket must take ~n/rate seconds.
	const rate = 1 << 20 // 1 MiB/s
	l := NewLimiter(rate)
	defer l.Close()
	start := time.Now()
	l.Wait(512 << 10) // should take ~0.5 s
	elapsed := time.Since(start)
	if elapsed < 300*time.Millisecond || elapsed > 900*time.Millisecond {
		t.Errorf("Wait(512KiB) at 1MiB/s took %v, want ~500ms", elapsed)
	}
}

func TestSetRateTakesEffectWhileBlocked(t *testing.T) {
	l := NewLimiter(1024) // 1 KiB/s: Wait(64KiB) would take ~64 s
	defer l.Close()
	done := make(chan struct{})
	go func() {
		l.Wait(64 << 10)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	l.SetRate(Unlimited)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("SetRate(Unlimited) did not release blocked Wait")
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	l := NewLimiter(1)
	done := make(chan struct{})
	go func() {
		l.Wait(1 << 20)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not release blocked Wait")
	}
}

func TestSharedLimiterSplitsBudget(t *testing.T) {
	// Two writers sharing one limiter should together achieve roughly the
	// configured rate — the per-node budget semantics of the paper.
	const rate = 400 << 10
	l := NewLimiter(rate)
	defer l.Close()
	const each = 60 << 10
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := 0; off < each; off += 4096 {
				l.Wait(4096)
			}
		}()
	}
	wg.Wait()
	got := float64(2*each) / time.Since(start).Seconds()
	within(t, "shared aggregate rate", got, rate, 0.3)
}

func TestShaperTakesMinOfLimiters(t *testing.T) {
	fast := NewLimiter(10 << 20)
	slow := NewLimiter(200 << 10)
	defer fast.Close()
	defer slow.Close()
	s := NewShaper(fast, slow)
	got := rateOf(t, 60<<10, func(b []byte) {
		for off := 0; off < len(b); off += 4096 {
			s.Wait(4096)
		}
	})
	within(t, "composed rate", got, 200<<10, 0.3)
}

func TestNewShaperSkipsNil(t *testing.T) {
	s := NewShaper(nil, NewLimiter(Unlimited), nil)
	if s.n != 1 {
		t.Errorf("NewShaper kept %d limiters, want 1", s.n)
	}
	s.Wait(1024) // must not panic
}

func TestShapedWriterRate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLimiter(300 << 10)
	defer l.Close()
	sh := NewShaper(l)
	w := NewWriter(&buf, &sh)
	payload := make([]byte, 90<<10)
	start := time.Now()
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got := float64(n) / time.Since(start).Seconds()
	within(t, "writer rate", got, 300<<10, 0.3)
	if buf.Len() != len(payload) {
		t.Errorf("underlying writer got %d bytes, want %d", buf.Len(), len(payload))
	}
}

func TestShapedWriterNilShaperPassthrough(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	if _, err := w.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "abc" {
		t.Errorf("passthrough wrote %q", buf.String())
	}
}

func TestShapedReaderRate(t *testing.T) {
	src := bytes.NewReader(make([]byte, 90<<10))
	l := NewLimiter(300 << 10)
	defer l.Close()
	sh := NewShaper(l)
	r := NewReader(src, &sh)
	start := time.Now()
	n, err := io.Copy(io.Discard, &r)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(n) / time.Since(start).Seconds()
	within(t, "reader rate", got, 300<<10, 0.3)
}

func TestNodeBudgetAsymmetric(t *testing.T) {
	// DSL-like: generous downlink, narrow uplink.
	b := NewNodeBudget(Unlimited, 100<<10, 10<<20)
	defer b.Close()
	up := b.UpShaper(nil)
	got := rateOf(t, 50<<10, func(bb []byte) {
		for off := 0; off < len(bb); off += 4096 {
			up.Wait(4096)
		}
	})
	// Generous bounds: host scheduling noise on a shared vCPU can stall
	// the waiter between refills.
	within(t, "uplink rate", got, 100<<10, 0.4)

	down := b.DownShaper()
	start := time.Now()
	for off := 0; off < 1<<20; off += 4096 {
		down.Wait(4096)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("downlink at 10 MiB/s too slow for 1 MiB transfer")
	}
}

func TestNodeBudgetTotalCapsBothDirections(t *testing.T) {
	b := NewNodeBudget(200<<10, Unlimited, Unlimited)
	defer b.Close()
	up, down := b.UpShaper(nil), b.DownShaper()
	const each = 30 << 10
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range []*Shaper{&up, &down} {
		wg.Add(1)
		go func(s *Shaper) {
			defer wg.Done()
			for off := 0; off < each; off += 4096 {
				s.Wait(4096)
			}
		}(s)
	}
	wg.Wait()
	got := float64(2*each) / time.Since(start).Seconds()
	within(t, "total budget across directions", got, 200<<10, 0.35)
}

func TestRateAccessor(t *testing.T) {
	l := NewLimiter(12345)
	defer l.Close()
	if got := l.Rate(); got != 12345 {
		t.Errorf("Rate() = %d, want 12345", got)
	}
	l.SetRate(54321)
	if got := l.Rate(); got != 54321 {
		t.Errorf("Rate() after SetRate = %d, want 54321", got)
	}
}
