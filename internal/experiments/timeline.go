package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/observer"
	"repro/internal/trace"
)

// This harness is the end-to-end demonstration of the flight-recorder
// pipeline: a multicast session is built, interior nodes are crashed
// mid-stream, and instead of per-node counters the experiment reports the
// observer's merged cross-node event timeline — link failures on the
// survivors lining up with their reconnect backoffs and tree reparents,
// reconstructed entirely from the recorder tails shipped inside ordinary
// status reports.

// TimelineConfig parameterizes the flight-recorder churn demo.
type TimelineConfig struct {
	// N is the session size including the source (default 16).
	N int
	// Kills is how many interior nodes are crashed at once (default 2).
	Kills int
	// RecoveryTimeout bounds the wait for the session to heal (default 30s).
	RecoveryTimeout time.Duration
}

// timelineTail caps how many trailing timeline events the render includes.
const timelineTail = 48

func (c *TimelineConfig) applyDefaults() {
	if c.N <= 0 {
		c.N = 16
	}
	if c.Kills <= 0 {
		c.Kills = 2
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = recoveryTimeout
	}
}

// TimelineResult is the outcome of the churn run plus the observer's view
// of it.
type TimelineResult struct {
	// Nodes is how many nodes contributed events to the merged timeline.
	Nodes int
	// Events is the total merged event count.
	Events int
	// ByKind counts events per kind name.
	ByKind map[string]int
	// Recovered reports whether the session healed within the timeout.
	Recovered bool
	// Recovery is how long healing took.
	Recovery time.Duration
	// Tail is the rendered trailing slice of the merged timeline.
	Tail string
	// Hists is the rendered cluster-wide queue-delay distribution.
	Hists string

	stuck string // on a timeout, the nodes in the way and why
}

// Timeline builds an N-node tree session, crashes Kills interior nodes
// mid-stream, waits for the repair, and returns the observer's merged
// flight-recorder timeline of the whole episode.
func Timeline(cfg TimelineConfig) (*TimelineResult, error) {
	cfg.applyDefaults()
	s, err := NewSession(SessionConfig{N: cfg.N})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	burst := s.KillInterior(cfg.Kills, cfg.RecoveryTimeout)
	res := &TimelineResult{Recovered: burst.Recovered, Recovery: burst.Recovery, stuck: burst.stuck}
	// Let the next status round ship the repair's event tails.
	time.Sleep(300 * time.Millisecond)

	tl := s.Obs.Timeline()
	res.Events = len(tl)
	res.ByKind = make(map[string]int)
	seen := make(map[string]bool)
	for _, te := range tl {
		res.ByKind[trace.KindName(te.Event.Kind)]++
		seen[te.Node.String()] = true
	}
	res.Nodes = len(seen)
	res.Tail = renderTimelineTail(tl, timelineTail)
	res.Hists = s.Obs.RenderHists()
	return res, nil
}

// renderTimelineTail renders the last n non-switch events (switching is
// constant-rate noise at this zoom level; the churn story is in the link,
// backoff, and reparent events) falling back to the raw tail when the
// filter leaves nothing.
func renderTimelineTail(tl []observer.TimelineEvent, n int) string {
	var interesting []observer.TimelineEvent
	for _, te := range tl {
		if te.Event.Kind != trace.KindSwitch {
			interesting = append(interesting, te)
		}
	}
	if len(interesting) == 0 {
		interesting = tl
	}
	if len(interesting) > n {
		interesting = interesting[len(interesting)-n:]
	}
	var b strings.Builder
	for _, te := range interesting {
		ev := te.Event
		when := time.Unix(0, ev.Nanos).UTC().Format("15:04:05.000000")
		fmt.Fprintf(&b, "  %s %-15s %-11s", when, te.Node, trace.KindName(ev.Kind))
		if !ev.Peer.IsZero() {
			fmt.Fprintf(&b, " peer=%s", ev.Peer)
		}
		fmt.Fprintf(&b, " value=%d\n", ev.Value)
	}
	return b.String()
}

// RenderTimelineResult formats the churn timeline in ibench's house style.
func RenderTimelineResult(r *TimelineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timeline: flight-recorder view of a %d-event churn run\n", r.Events)
	fmt.Fprintf(&b, "nodes reporting: %d   recovered: %v in %s\n",
		r.Nodes, r.Recovered, r.Recovery.Round(time.Millisecond))
	b.WriteString(r.stuck)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-11s %d\n", k, r.ByKind[k])
	}
	b.WriteString("event tail (switch events elided):\n")
	b.WriteString(r.Tail)
	b.WriteString(r.Hists)
	return b.String()
}
