package engine

import (
	"testing"
	"time"
)

// TestBackoffJitterStaysWithinBounds drives many retry sequences and
// requires every jittered delay to stay inside [base, max]: jitter may
// spread a cluster's redials but must never undercut the floor (hammering
// a recovering peer) nor exceed the cap (stalling recovery).
func TestBackoffJitterStaysWithinBounds(t *testing.T) {
	const base, max = 50 * time.Millisecond, 800 * time.Millisecond
	for seed := int64(0); seed < 20; seed++ {
		b := newBackoff(base, max, seed)
		for i := 0; i < 100; i++ {
			d := b.next()
			if d < base {
				t.Fatalf("seed %d attempt %d: delay %v below base %v", seed, i, d, base)
			}
			if d > max {
				t.Fatalf("seed %d attempt %d: delay %v above cap %v", seed, i, d, max)
			}
		}
	}
}

// TestBackoffGrowsTowardCap checks the exponential progression: delays
// trend upward and settle at the cap (within jitter) rather than growing
// without bound or overflowing the shift.
func TestBackoffGrowsTowardCap(t *testing.T) {
	const base, max = 10 * time.Millisecond, 500 * time.Millisecond
	b := newBackoff(base, max, 1)
	// Skip well past the doubling horizon (and past attempt 62, the shift
	// overflow guard): every delay must still be within bounds and the
	// later ones pinned near the cap.
	var last time.Duration
	for i := 0; i < 80; i++ {
		last = b.next()
	}
	if last < time.Duration(float64(max)*0.75) || last > max {
		t.Fatalf("delay after many attempts = %v, want within [0.75*cap, cap] of %v", last, max)
	}
}

// TestBackoffResetRestartsProgression checks reset-after-success: the next
// delay after reset is back at the base scale, not the cap.
func TestBackoffResetRestartsProgression(t *testing.T) {
	const base, max = 10 * time.Millisecond, 500 * time.Millisecond
	b := newBackoff(base, max, 7)
	for i := 0; i < 10; i++ {
		b.next()
	}
	b.reset()
	d := b.next()
	// First post-reset delay is base with +-25% jitter, clamped at base.
	if d < base || d > time.Duration(float64(base)*1.25) {
		t.Fatalf("post-reset delay = %v, want within [base, 1.25*base] of base %v", d, base)
	}
}

// TestBackoffFloorIsOneShot checks the Busy retry-after hint semantics:
// floor() raises exactly the next delay to at least the hint, and the
// attempt after that returns to the normal jittered schedule.
func TestBackoffFloorIsOneShot(t *testing.T) {
	const base, max = 10 * time.Millisecond, 500 * time.Millisecond
	b := newBackoff(base, max, 11)
	const hint = 200 * time.Millisecond
	b.floor(hint)
	if d := b.next(); d < hint {
		t.Fatalf("floored delay = %v, want >= hint %v", d, hint)
	}
	// One-shot: the second delay follows the exponential schedule (attempt
	// 1 of a 10ms base is at most 25ms with jitter), not the stale hint.
	if d := b.next(); d >= hint {
		t.Fatalf("post-floor delay = %v, floor was not one-shot", d)
	}
}

// TestBackoffFloorClampedToCap checks an adversarial retry-after hint
// cannot stall the dialer past its own configured ceiling.
func TestBackoffFloorClampedToCap(t *testing.T) {
	const base, max = 10 * time.Millisecond, 100 * time.Millisecond
	b := newBackoff(base, max, 13)
	b.floor(time.Hour)
	if d := b.next(); d > max {
		t.Fatalf("floored delay = %v, want clamped to cap %v", d, max)
	}
	// A larger pending hint wins; a smaller or negative one never lowers it.
	b.floor(50 * time.Millisecond)
	b.floor(80 * time.Millisecond)
	b.floor(-time.Second)
	if d := b.next(); d < 80*time.Millisecond || d > max {
		t.Fatalf("floored delay = %v, want within [80ms, cap]", d)
	}
}

// TestBackoffDefaultsApplied checks zero inputs fall back to the engine
// defaults instead of producing zero (busy-loop) delays.
func TestBackoffDefaultsApplied(t *testing.T) {
	b := newBackoff(0, 0, 3)
	d := b.next()
	if d < DefaultRetryBase || d > fixedTiming.RetryMax {
		t.Fatalf("default-config delay = %v, want within [%v, %v]", d, DefaultRetryBase, fixedTiming.RetryMax)
	}
}
