package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
)

// OverloadConfig parameterizes the control-plane-isolation experiment: the
// churn scenario (kill interior nodes mid-stream, measure repair latency)
// is run twice on identical sessions — once unloaded and once with every
// receiver's uplink throttled to a fraction of the stream rate so the
// forwarding queues stay saturated. With control and data sharing FIFO
// rings, the loaded round's failure notifications would wait behind the
// queued payload; with the priority lane, recovery must stay within a small
// factor of the unloaded baseline while the bounded rings hold the backlog
// by back-pressure alone.
type OverloadConfig struct {
	// N is the session size including the source (default 20).
	N int
	// Kills is how many interior nodes are crashed at once (default 3).
	Kills int
}

// saturateBW is the per-receiver uplink throttle during the loaded round:
// half the stream rate, so interior fan-out is ~4x oversubscribed.
const saturateBW = sessionRate / 2

func (c *OverloadConfig) applyDefaults() {
	if c.N <= 0 {
		c.N = 20
	}
	if c.Kills <= 0 {
		c.Kills = 3
	}
}

// OverloadPoint is one round's outcome.
type OverloadPoint struct {
	// Saturated reports whether the data plane was overloaded when the
	// failure burst fired.
	Saturated bool
	// Failures/Interior/Orphaned mirror Fig9ChurnPoint.
	Failures, Interior, Orphaned int
	// Recovery is the time until every surviving receiver was back in
	// the tree and receiving; Recovered is false on timeout.
	Recovery  time.Duration
	Recovered bool
	// BytesLost counts bytes dropped across the cluster by the burst.
	BytesLost int64
	// CtrlDelay/DataDelay are the worst smoothed per-class queueing
	// delays across all sender rings, sampled just before the kill.
	CtrlDelay, DataDelay time.Duration
	// MaxBuffered is the cluster-wide peak of any engine's buffered
	// bytes over the whole round; the rings bound it.
	MaxBuffered int64

	stuck string // on a timeout, the nodes in the way and why
}

// OverloadResult pairs the two rounds.
type OverloadResult struct {
	Unloaded, Loaded OverloadPoint
}

// queueDelays reports the worst smoothed per-class queueing delay across
// the session's engines.
func (s *Session) queueDelays() (ctrl, data time.Duration) {
	for _, e := range s.Engines {
		c, d := e.QueueDelays()
		ctrl, data = max(ctrl, c), max(data, d)
	}
	return ctrl, data
}

// Overload runs the unloaded baseline and the saturated round.
func Overload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg.applyDefaults()
	res := &OverloadResult{}
	unloaded, err := overloadOne(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("unloaded round: %w", err)
	}
	res.Unloaded = *unloaded
	loaded, err := overloadOne(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("saturated round: %w", err)
	}
	res.Loaded = *loaded
	return res, nil
}

func overloadOne(cfg OverloadConfig, saturate bool) (*OverloadPoint, error) {
	s, err := NewSession(SessionConfig{N: cfg.N})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	if saturate {
		// Throttle every receiver's uplink below the stream rate; the
		// source keeps pumping at full rate, so interior forwarding
		// queues fill and stay full.
		for i := 1; i < cfg.N; i++ {
			s.Saturate(i, saturateBW)
		}
		// Let the overload bite before measuring. A message that waited one
		// sender ring's worth of bytes at the throttled rate arrived at a
		// full ring: back-pressure binds.
		ringDrain := time.Duration(engine.DefaultSendBuf*sessionMsgSize) * time.Second / saturateBW
		overloadBy := time.Now().Add(10 * time.Second)
		for {
			if _, data := s.queueDelays(); data >= ringDrain {
				break
			}
			if time.Now().After(overloadBy) {
				return nil, fmt.Errorf("saturation never filled a sender ring (data-lane delay below %s)", ringDrain)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	point := &OverloadPoint{Saturated: saturate}
	point.CtrlDelay, point.DataDelay = s.queueDelays()

	burst := s.KillInterior(cfg.Kills, recoveryTimeout)
	point.Failures, point.Interior, point.Orphaned = burst.Failures, burst.Interior, burst.Orphaned
	point.Recovery, point.Recovered, point.BytesLost = burst.Recovery, burst.Recovered, burst.BytesLost
	point.stuck = burst.stuck
	for _, e := range s.Engines {
		if m := e.MaxBufferedBytes(); m > point.MaxBuffered {
			point.MaxBuffered = m
		}
	}
	return point, nil
}

// RenderOverload formats the paired rounds.
func RenderOverload(res *OverloadResult) string {
	var b strings.Builder
	b.WriteString("Overload: interior-kill recovery, unloaded vs saturated data plane\n")
	b.WriteString("  round      kills  orphaned   recovery  ctrl-delay  data-delay   maxbuf  lost(bytes)  state\n")
	row := func(name string, p OverloadPoint) {
		fmt.Fprintf(&b, "  %-9s  %5d  %8d  %9s  %10s  %10s  %7d  %11d  %s\n",
			name, p.Failures, p.Orphaned, p.Recovery.Round(time.Millisecond),
			p.CtrlDelay.Round(time.Millisecond), p.DataDelay.Round(time.Millisecond),
			p.MaxBuffered, p.BytesLost, healState(p.Recovered))
		b.WriteString(p.stuck)
	}
	row("unloaded", res.Unloaded)
	row("saturated", res.Loaded)
	base := res.Unloaded.Recovery
	if base <= 0 {
		base = time.Millisecond
	}
	fmt.Fprintf(&b, "  loaded/unloaded recovery ratio: %.2f\n",
		float64(res.Loaded.Recovery)/float64(base))
	return b.String()
}
