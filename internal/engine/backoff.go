package engine

import "time"

// backoff produces capped exponential retry delays with jitter. One
// instance paces one retry loop (an observer reconnect, a sender's dial
// attempts); it is not safe for concurrent use. Jitter spreads a cluster's
// simultaneous reconnections after a shared failure — without it, every
// node that lost the same peer redials in lockstep.
type backoff struct {
	base    time.Duration
	max     time.Duration
	attempt int
	rng     splitmix64
	// floorNext is a one-shot minimum for the next delay: a busy
	// acceptor's retry-after hint lands here so the next attempt waits at
	// least that long, whatever the exponential schedule says.
	floorNext time.Duration
}

// newBackoff builds a retry pacer; seed makes the jitter sequence
// reproducible so chaos schedules replay deterministically.
func newBackoff(base, max time.Duration, seed int64) *backoff {
	if base <= 0 {
		base = DefaultRetryBase
	}
	if max <= 0 {
		max = fixedTiming.RetryMax
	}
	return &backoff{base: base, max: max, rng: splitmix64(seed)}
}

// next returns the delay before the following attempt: base doubled per
// attempt, capped at max, with ±25% jitter. The jittered delay is clamped
// back into [base, max]: jitter must never push a first retry below the
// configured floor nor a capped retry past the configured ceiling.
func (b *backoff) next() time.Duration {
	d := b.base << uint(b.attempt)
	if d <= 0 || d > b.max { // <= 0 catches shift overflow
		d = b.max
	}
	if b.attempt < 62 {
		b.attempt++
	}
	jitter := 0.75 + 0.5*b.rng.float64()
	j := time.Duration(float64(d) * jitter)
	if j < b.base {
		j = b.base
	}
	if j > b.max {
		j = b.max
	}
	if f := b.floorNext; f > 0 {
		b.floorNext = 0
		if j < f {
			j = f
		}
		if j > b.max {
			// An adversarial hint must not stall the dialer past its own
			// configured ceiling.
			j = b.max
		}
	}
	return j
}

// floor arms a one-shot minimum for the next delay; the acceptor's
// retry-after hint from a Busy frame. Non-positive hints are ignored.
func (b *backoff) floor(d time.Duration) {
	if d > b.floorNext {
		b.floorNext = d
	}
}

// reset restarts the progression after a successful attempt.
func (b *backoff) reset() { b.attempt = 0 }

// newBackoff derives a retry pacer from the engine's retry bounds, seeded
// from the node identity and a caller-chosen salt: concurrent loops on one
// node don't share a jitter sequence, nodes jitter apart, and the same
// identity replays the same schedule.
func (e *Engine) newBackoff(salt int64) *backoff {
	seed := (int64(e.id.IP)<<32 | int64(e.id.Port)) ^ salt
	return newBackoff(e.cfg.RetryBase, e.timing.RetryMax, seed)
}

// splitmix64 is the jitter source: a 64-bit state and an output mix, where
// a math/rand source would carry 4.9 KiB of state per retry loop. Jitter
// needs spread and replay, not statistical strength.
type splitmix64 uint64

// float64 returns the next value, uniform in [0, 1).
func (s *splitmix64) float64() float64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
