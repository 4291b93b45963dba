package metrics

import (
	"testing"
	"time"
)

// TestMeterBucketAdvance drives the meter with a synthetic clock through
// the traffic shapes that exposed the stale-bucket bug: Add used to
// advance head one slot per call regardless of elapsed time, so after an
// idle gap the skipped intervals were never recorded as zero-byte
// buckets and a post-idle burst was rated over a span clamped to a
// single bucket instead of the window.
func TestMeterBucketAdvance(t *testing.T) {
	// newMeter(2s) gives 20 buckets of 100ms.
	const bucket = 100 * time.Millisecond
	t0 := time.Unix(1000, 0)

	tests := []struct {
		name     string
		drive    func(m *Meter) time.Time // returns the query time
		min, max float64                  // acceptable Rate() bounds
	}{
		{
			// One add long ago, then a 10s idle gap, then an 8000-byte
			// burst. The burst must be averaged over the (empty) window,
			// not over one clamped bucket: 8000/1.9s ≈ 4210 B/s. The
			// pre-fix code reported 8000/0.1s = 80000 B/s.
			name: "idle then burst",
			drive: func(m *Meter) time.Time {
				m.addAt(t0, 1000)
				now := t0.Add(10 * time.Second)
				m.addAt(now, 8000)
				return now
			},
			min: 3000, max: 6000,
		},
		{
			// 100 bytes every 500ms. Each add skips four empty bucket
			// intervals which must appear as zero buckets: the window
			// holds 4 in-cutoff adds (400 bytes) over a ~1.9s span,
			// ≈ 210 B/s. Pre-fix the idle intervals vanished and the
			// span shrank to 1.5s, inflating the rate to ≈ 267 B/s.
			name: "sparse traffic",
			drive: func(m *Meter) time.Time {
				now := t0
				for i := 0; i < 13; i++ {
					now = t0.Add(time.Duration(i) * 500 * time.Millisecond)
					m.addAt(now, 100)
				}
				return now
			},
			min: 180, max: 240,
		},
		{
			// Steady traffic for 2.5 windows: wrap-around must keep the
			// estimate at the true rate (100 bytes / 100ms = 1000 B/s;
			// the in-window sum is 2000 bytes over a 1.9s span ≈ 1052).
			name: "steady wrap-around",
			drive: func(m *Meter) time.Time {
				now := t0
				for i := 0; i < 50; i++ {
					now = t0.Add(time.Duration(i) * bucket)
					m.addAt(now, 100)
				}
				return now
			},
			min: 900, max: 1200,
		},
		{
			// A gap slightly longer than the window must fully retire
			// the old traffic: only the new add may contribute.
			name: "gap retires old window",
			drive: func(m *Meter) time.Time {
				for i := 0; i < 20; i++ {
					m.addAt(t0.Add(time.Duration(i)*bucket), 1000)
				}
				now := t0.Add(20*bucket + 2100*time.Millisecond)
				m.addAt(now, 100)
				return now
			},
			min: 1, max: 100,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := newMeter(2 * time.Second)
			now := tc.drive(m)
			got := m.rateAt(now)
			if got < tc.min || got > tc.max {
				t.Fatalf("rate = %.1f B/s, want in [%.0f, %.0f]", got, tc.min, tc.max)
			}
		})
	}
}

// TestMeterAdvanceClearsSkippedBuckets checks the repaired invariant
// directly: after any add, no bucket may carry a timestamp older than
// one window before the newest bucket (stale counts must have been
// cleared, not left behind with their old timestamps).
func TestMeterAdvanceClearsSkippedBuckets(t *testing.T) {
	m := newMeter(2 * time.Second)
	t0 := time.Unix(2000, 0)
	gaps := []time.Duration{
		0, 50 * time.Millisecond, 150 * time.Millisecond, 700 * time.Millisecond,
		1900 * time.Millisecond, 2 * time.Second, 5 * time.Second, 30 * time.Millisecond,
	}
	now := t0
	for _, g := range gaps {
		now = now.Add(g)
		m.addAt(now, 10)
		m.mu.Lock()
		window := m.bucketSize * time.Duration(len(m.buckets))
		newest := m.times[m.head]
		for i, ts := range m.times {
			if ts.IsZero() {
				continue
			}
			if newest.Sub(ts) > window && m.buckets[i] != 0 {
				m.mu.Unlock()
				t.Fatalf("after gap %v: bucket %d holds %d bytes with stale timestamp %v (newest %v)",
					g, i, m.buckets[i], ts, newest)
			}
		}
		m.mu.Unlock()
	}
	if m.Total() != int64(10*len(gaps)) {
		t.Fatalf("total = %d, want %d", m.Total(), 10*len(gaps))
	}
}
