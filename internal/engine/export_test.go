package engine

// Timing is an engine's link set-up timing (see linkTiming), which only
// tests may shorten.
type Timing = linkTiming

// NewTimed is New with t in place of the fixed link set-up timing; a zero
// field keeps its fixed value.
func NewTimed(cfg Config, t Timing) (*Engine, error) {
	if t.Handshake <= 0 {
		t.Handshake = fixedTiming.Handshake
	}
	if t.DialAttempts <= 0 {
		t.DialAttempts = fixedTiming.DialAttempts
	}
	if t.RetryMax <= 0 {
		t.RetryMax = fixedTiming.RetryMax
	}
	return newEngine(cfg, t)
}
