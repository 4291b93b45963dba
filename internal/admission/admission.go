// Package admission implements connection-storm admission control for
// the engine and observer accept paths: a token gate bounding concurrent
// in-flight handshakes, per-source rate limiting with a greylist for
// flapping peers, and the decision taxonomy shared by the metrics
// counters and the flight recorder.
//
// The gate sits between Accept and the handshake: every inbound
// connection asks for admission with the remote host as its source key,
// and a refused connection is shed before any handshake work — at most
// one Busy frame is spent on it. An admitted connection holds its
// handshake token from Accept until the link is registered (or the
// handshake dies), so a dial storm can pin at most MaxHandshakes
// handshakes' worth of goroutines and read buffers no matter how fast
// connections arrive.
//
// A nil *Gate admits everything; call sites need no guards.
package admission

import (
	"flag"
	"fmt"
	"sync"
	"time"
)

// Decision classifies one admission-control outcome. The codes travel as
// the Value of trace.KindAccept events, so they are stable small ints.
type Decision int32

// Admission outcomes.
const (
	// Admitted: the connection passed the gate and proceeds to handshake.
	Admitted Decision = iota + 1
	// ShedBusy: all MaxHandshakes in-flight tokens were taken.
	ShedBusy
	// ShedRate: the source exceeded its per-source admission rate.
	ShedRate
	// ShedGreylist: the source struck out repeatedly and is greylisted;
	// it is closed without even a Busy frame.
	ShedGreylist
	// BadHello: the first frame of an admitted connection was not a
	// well-formed hello.
	BadHello
	// Timeout: an admitted connection sent no hello within the
	// handshake deadline.
	Timeout
	// AcceptRetry: the listener survived a transient Accept error by
	// backing off and retrying.
	AcceptRetry
)

// String renders a decision for logs and timelines.
func (d Decision) String() string {
	switch d {
	case Admitted:
		return "admitted"
	case ShedBusy:
		return "shed-busy"
	case ShedRate:
		return "shed-rate"
	case ShedGreylist:
		return "shed-greylist"
	case BadHello:
		return "bad-hello"
	case Timeout:
		return "handshake-timeout"
	case AcceptRetry:
		return "accept-retry"
	default:
		return "unknown"
	}
}

// Config tunes a Gate — the same five knobs on every listener that has
// one: an engine's publicized port, an observer's registration port.
// Zero values select the defaults below.
type Config struct {
	// MaxHandshakes bounds concurrent in-flight handshakes: tokens held
	// from Accept until the link is registered. Zero selects
	// DefaultMaxHandshakes; negative disables admission control (New
	// returns the nil, admit-everything gate).
	MaxHandshakes int
	// SourceRate is the sustained admissions per second allowed per
	// source host; SourceBurst the bucket depth. <=0 select defaults.
	SourceRate  float64
	SourceBurst int
	// GreylistAfter is the strike count (consecutive rate-limit
	// refusals) that greylists a source; GreylistFor how long the
	// greylist entry lasts. <=0 select defaults.
	GreylistAfter int
	GreylistFor   time.Duration
}

// Defaults; chosen so a polite overlay (redials spaced by the engine's
// capped backoff) never notices the gate. DefaultMaxSources bounds the
// per-source table (past it the entry with the oldest activity is
// evicted); DefaultRetryAfter is the hint Busy frames carry for token
// exhaustion (rate refusals hint the time until a token accrues).
const (
	DefaultMaxHandshakes = 64
	DefaultSourceRate    = 16.0
	DefaultSourceBurst   = 32
	DefaultGreylistAfter = 8
	DefaultGreylistFor   = 2 * time.Second
	DefaultMaxSources    = 1024
	DefaultRetryAfter    = 100 * time.Millisecond
)

// Flags registers the command-line knobs of c on fs — the same four flags
// on every binary with a gated listener. Each flag's zero selects the
// package default, and -max-handshakes below zero disables the gate.
func Flags(fs *flag.FlagSet, c *Config) {
	fs.IntVar(&c.MaxHandshakes, "max-handshakes", 0, fmt.Sprintf(
		"concurrent inbound handshake cap; excess connections get a one-frame busy refusal (0 = default %d, negative disables admission control)",
		DefaultMaxHandshakes))
	fs.Float64Var(&c.SourceRate, "accept-rate", 0, fmt.Sprintf(
		"sustained per-source accept rate in connections/sec (0 = default %v)", DefaultSourceRate))
	fs.IntVar(&c.GreylistAfter, "greylist-after", 0, fmt.Sprintf(
		"consecutive rate refusals before a source is greylisted (0 = default %d)", DefaultGreylistAfter))
	fs.DurationVar(&c.GreylistFor, "greylist-for", 0, fmt.Sprintf(
		"how long a greylisted source's connections are closed silently (0 = default %v)", DefaultGreylistFor))
}

// source is one per-host rate/greylist record.
type source struct {
	tokens    float64   // remaining burst allowance
	refilled  time.Time // last token refill
	strikes   int       // consecutive rate refusals
	greyUntil time.Time // zero when not greylisted
	lastSeen  time.Time // eviction key
}

// Stats is a snapshot of a gate's counters.
type Stats struct {
	Admitted     int64
	ShedBusy     int64
	ShedRate     int64
	ShedGreylist int64
	InFlight     int64
	InFlightPeak int64
	Sources      int
	Evicted      int64
}

// Gate is the admission controller. All methods are safe for concurrent
// use and are no-ops (admit-everything) on a nil receiver.
type Gate struct {
	cfg        Config
	maxSources int
	now        func() time.Time

	mu       sync.Mutex
	inFlight int64
	peak     int64
	sources  map[string]*source
	stats    Stats
}

// New builds a gate, normalizing zero config fields to the defaults. A
// negative MaxHandshakes disables admission control: New returns nil,
// which admits everything.
func New(cfg Config) *Gate { return newGate(cfg, DefaultMaxSources, time.Now) }

// newGate is New with the source-table bound and the clock chosen by the
// caller — the package's own tests.
func newGate(cfg Config, maxSources int, now func() time.Time) *Gate {
	if cfg.MaxHandshakes < 0 {
		return nil
	}
	if cfg.MaxHandshakes == 0 {
		cfg.MaxHandshakes = DefaultMaxHandshakes
	}
	if cfg.SourceRate <= 0 {
		cfg.SourceRate = DefaultSourceRate
	}
	if cfg.SourceBurst <= 0 {
		cfg.SourceBurst = DefaultSourceBurst
	}
	if cfg.GreylistAfter <= 0 {
		cfg.GreylistAfter = DefaultGreylistAfter
	}
	if cfg.GreylistFor <= 0 {
		cfg.GreylistFor = DefaultGreylistFor
	}
	return &Gate{cfg: cfg, maxSources: maxSources, now: now, sources: make(map[string]*source)}
}

// Admit decides whether a connection from the given source host may
// proceed to handshake. On Admitted the caller holds one in-flight token
// and must call Release exactly once when the handshake path ends. On
// refusal the returned hint is the retry-after duration to carry in a
// Busy frame (zero for greylisted sources, which get no frame at all).
func (g *Gate) Admit(sourceHost string) (Decision, time.Duration) {
	if g == nil {
		return Admitted, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	s := g.source(sourceHost, now)
	s.lastSeen = now

	// Greylisted sources are shed outright; continued hammering re-arms
	// the entry, so a flapping peer stays out until it actually stops.
	if now.Before(s.greyUntil) {
		s.greyUntil = now.Add(g.cfg.GreylistFor)
		g.stats.ShedGreylist++
		return ShedGreylist, 0
	}

	// Per-source token bucket: refill by elapsed time, capped at the
	// burst depth.
	s.tokens += now.Sub(s.refilled).Seconds() * g.cfg.SourceRate
	if s.tokens > float64(g.cfg.SourceBurst) {
		s.tokens = float64(g.cfg.SourceBurst)
	}
	s.refilled = now
	if s.tokens < 1 {
		s.strikes++
		if s.strikes >= g.cfg.GreylistAfter {
			s.greyUntil = now.Add(g.cfg.GreylistFor)
			s.strikes = 0
			g.stats.ShedGreylist++
			return ShedGreylist, 0
		}
		g.stats.ShedRate++
		need := (1 - s.tokens) / g.cfg.SourceRate
		return ShedRate, time.Duration(need * float64(time.Second))
	}

	// Global in-flight handshake tokens. Exhaustion is not the source's
	// fault, so it costs no source token and no strike.
	if g.inFlight >= int64(g.cfg.MaxHandshakes) {
		g.stats.ShedBusy++
		return ShedBusy, DefaultRetryAfter
	}

	s.tokens--
	if s.strikes > 0 {
		s.strikes--
	}
	g.inFlight++
	if g.inFlight > g.peak {
		g.peak = g.inFlight
	}
	g.stats.Admitted++
	return Admitted, 0
}

// AdmitDatagram decides whether an unsolicited datagram from the given
// source host deserves further processing. It consults the greylist and
// the per-source token bucket exactly like Admit, but takes no in-flight
// handshake token — a datagram has no handshake to bound — so the caller
// must not Release. Refusals strike toward the greylist the same way, so
// a host spraying packets at an open port goes dark just like one
// hammering the accept loop.
func (g *Gate) AdmitDatagram(sourceHost string) Decision {
	if g == nil {
		return Admitted
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	s := g.source(sourceHost, now)
	s.lastSeen = now
	if now.Before(s.greyUntil) {
		s.greyUntil = now.Add(g.cfg.GreylistFor)
		g.stats.ShedGreylist++
		return ShedGreylist
	}
	s.tokens += now.Sub(s.refilled).Seconds() * g.cfg.SourceRate
	if s.tokens > float64(g.cfg.SourceBurst) {
		s.tokens = float64(g.cfg.SourceBurst)
	}
	s.refilled = now
	if s.tokens < 1 {
		s.strikes++
		if s.strikes >= g.cfg.GreylistAfter {
			s.greyUntil = now.Add(g.cfg.GreylistFor)
			s.strikes = 0
			g.stats.ShedGreylist++
			return ShedGreylist
		}
		g.stats.ShedRate++
		return ShedRate
	}
	s.tokens--
	if s.strikes > 0 {
		s.strikes--
	}
	return Admitted
}

// Bypass takes an in-flight token without consulting the cap or the
// source table — for connections a standing policy always admits, like
// an observer's federation peers. The count stays honest (the hello
// reader exists either way) but a trusted peer can never be refused.
// The caller must Release exactly like an Admitted connection.
func (g *Gate) Bypass() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inFlight++
	if g.inFlight > g.peak {
		g.peak = g.inFlight
	}
	g.stats.Admitted++
}

// Release returns one in-flight handshake token. Call exactly once per
// Admitted verdict, when the handshake either registered its link or
// died.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inFlight > 0 {
		g.inFlight--
	}
}

// InFlight reports the tokens currently held.
func (g *Gate) InFlight() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight
}

// Stats snapshots the gate's counters.
func (g *Gate) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.InFlight = g.inFlight
	st.InFlightPeak = g.peak
	st.Sources = len(g.sources)
	return st
}

// source returns the record for a host, creating it (and evicting the
// stalest record when the table is full) as needed. Caller holds g.mu.
func (g *Gate) source(host string, now time.Time) *source {
	if s, ok := g.sources[host]; ok {
		return s
	}
	if len(g.sources) >= g.maxSources {
		var oldestKey string
		var oldest time.Time
		for k, s := range g.sources {
			if oldestKey == "" || s.lastSeen.Before(oldest) {
				oldestKey, oldest = k, s.lastSeen
			}
		}
		delete(g.sources, oldestKey)
		g.stats.Evicted++
	}
	s := &source{tokens: float64(g.cfg.SourceBurst), refilled: now}
	g.sources[host] = s
	return s
}
