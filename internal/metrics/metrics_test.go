package metrics

import (
	"sync"
	"testing"
	"time"
)

// newMeter builds a meter on the heap, the way the tests share one
// between goroutines.
func newMeter(window time.Duration) *Meter {
	m := new(Meter)
	m.Init(window)
	return m
}

func TestMeterRateTracksSteadyStream(t *testing.T) {
	m := newMeter(500 * time.Millisecond)
	const rate = 100 << 10 // 100 KiB/s
	deadline := time.Now().Add(400 * time.Millisecond)
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for now := range ticker.C {
		m.Add(rate / 100) // rate/100 bytes every 10 ms
		if now.After(deadline) {
			break
		}
	}
	got := m.Rate()
	if got < float64(rate)*0.6 || got > float64(rate)*1.4 {
		t.Errorf("Rate() = %.0f, want ~%d", got, rate)
	}
}

func TestMeterRateDecaysAfterTrafficStops(t *testing.T) {
	m := newMeter(200 * time.Millisecond)
	m.Add(1 << 20)
	if m.Rate() == 0 {
		t.Fatal("Rate() = 0 right after Add")
	}
	time.Sleep(300 * time.Millisecond)
	if got := m.Rate(); got != 0 {
		t.Errorf("Rate() after window passed = %.0f, want 0", got)
	}
}

func TestMeterTotalAndLifetime(t *testing.T) {
	m := newMeter(time.Second)
	m.Add(100)
	m.Add(200)
	if got := m.Total(); got != 300 {
		t.Errorf("Total() = %d, want 300", got)
	}
	time.Sleep(50 * time.Millisecond)
	lr := m.LifetimeRate()
	if lr <= 0 || lr > 300/0.05 {
		t.Errorf("LifetimeRate() = %.0f out of plausible range", lr)
	}
}

func TestMeterIdle(t *testing.T) {
	m := newMeter(time.Second)
	if m.Idle() < 0 {
		t.Error("Idle() negative on fresh meter")
	}
	m.Add(1)
	if got := m.Idle(); got > 100*time.Millisecond {
		t.Errorf("Idle() right after Add = %v", got)
	}
	time.Sleep(120 * time.Millisecond)
	if got := m.Idle(); got < 100*time.Millisecond {
		t.Errorf("Idle() after quiet period = %v, want >= 100ms", got)
	}
}

func TestMeterReset(t *testing.T) {
	m := newMeter(time.Second)
	m.Add(1000)
	m.Reset()
	if m.Total() != 0 {
		t.Errorf("Total() after Reset = %d", m.Total())
	}
	if m.Rate() != 0 {
		t.Errorf("Rate() after Reset = %.0f", m.Rate())
	}
}

func TestMeterConcurrentAddAndRate(t *testing.T) {
	m := newMeter(time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(10)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 1000; j++ {
			_ = m.Rate()
		}
	}()
	wg.Wait()
	if got := m.Total(); got != 4*1000*10 {
		t.Errorf("Total() = %d, want %d", got, 4*1000*10)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.AddIn(1, 100)
	c.AddIn(1, 50)
	c.AddOut(1, 70)
	c.AddDropped(30)
	s := c.Snapshot()
	if s.MsgsIn != 2 || s.BytesIn != 150 {
		t.Errorf("in counters = %d msgs / %d bytes, want 2/150", s.MsgsIn, s.BytesIn)
	}
	if s.MsgsOut != 1 || s.BytesOut != 70 {
		t.Errorf("out counters = %d/%d, want 1/70", s.MsgsOut, s.BytesOut)
	}
	if s.MsgsDropped != 1 || s.BytesDropped != 30 {
		t.Errorf("dropped = %d/%d, want 1/30", s.MsgsDropped, s.BytesDropped)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.AddIn(1, 1)
				c.AddOut(1, 1)
				c.AddDropped(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.MsgsIn != 4000 || s.MsgsOut != 4000 || s.MsgsDropped != 4000 {
		t.Errorf("concurrent counters = %+v, want 4000 each", s)
	}
}

func TestLatencyTrackerFirstSample(t *testing.T) {
	var lt LatencyTracker
	if _, ok := lt.RTT(); ok {
		t.Error("RTT() reported a sample on empty tracker")
	}
	lt.Observe(100 * time.Millisecond)
	rtt, ok := lt.RTT()
	if !ok || rtt != 100*time.Millisecond {
		t.Errorf("RTT() = %v, %v; want exactly first sample", rtt, ok)
	}
}

func TestLatencyTrackerSmoothing(t *testing.T) {
	var lt LatencyTracker
	lt.Observe(100 * time.Millisecond)
	lt.Observe(200 * time.Millisecond)
	rtt, _ := lt.RTT()
	// EWMA with alpha=0.125: 0.875*100 + 0.125*200 = 112.5ms
	want := 112500 * time.Microsecond
	if rtt < want-time.Millisecond || rtt > want+time.Millisecond {
		t.Errorf("smoothed RTT = %v, want ~%v", rtt, want)
	}
}

func TestMeterInitZeroWindowUsesDefault(t *testing.T) {
	m := newMeter(0)
	if m.bucketSize != DefaultWindow/meterBuckets {
		t.Errorf("bucketSize = %v, want %v", m.bucketSize, DefaultWindow/meterBuckets)
	}
}

// TestGaugeHighWaterMark: Max keeps the peak after the gauge falls back.
func TestGaugeHighWaterMark(t *testing.T) {
	var g Gauge
	g.Add(40)
	g.Add(210)
	if g.Add(-250); g.Load() != 0 || g.Max() != 250 {
		t.Errorf("gauge = %d, max = %d; want 0 and 250", g.Load(), g.Max())
	}
}
