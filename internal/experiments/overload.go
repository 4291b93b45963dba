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
// queued payload; with the priority lane plus slow-peer shedding and the
// memory budget, recovery must stay within a small factor of the unloaded
// baseline.
type OverloadConfig struct {
	// N is the session size including the source (default 20).
	N int
	// Kills is how many interior nodes are crashed at once (default 3).
	Kills int
	// Rate is the source's send rate in bytes/sec (default 256 KBps).
	Rate int64
	// MsgSize is the data payload size (default 1 KB).
	MsgSize int
	// SaturateBW is the per-receiver uplink throttle during the loaded
	// round (default Rate/2, so interior fan-out is ~4x oversubscribed).
	SaturateBW int64
	// MemoryBudget bounds each engine's buffered wire bytes (default 1 MiB).
	MemoryBudget int64
	// StallThreshold enables slow-peer shedding (default 500ms).
	StallThreshold time.Duration
	// RecoveryTimeout bounds the wait for the session to heal (default 30s).
	RecoveryTimeout time.Duration
	// InactivityTimeout is the engines' passive failure detection window
	// (default 600ms); sub-timeout recoveries are dominated by it.
	InactivityTimeout time.Duration
}

func (c *OverloadConfig) applyDefaults() {
	if c.N <= 0 {
		c.N = 20
	}
	if c.Kills <= 0 {
		c.Kills = 3
	}
	if c.Rate <= 0 {
		c.Rate = 256 << 10
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 1 << 10
	}
	if c.SaturateBW <= 0 {
		c.SaturateBW = c.Rate / 2
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 1 << 20
	}
	if c.StallThreshold <= 0 {
		c.StallThreshold = 500 * time.Millisecond
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 30 * time.Second
	}
	if c.InactivityTimeout <= 0 {
		c.InactivityTimeout = 600 * time.Millisecond
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
	// bytes over the whole round; it must stay within the budget.
	MaxBuffered int64
	// BytesShed is the total data shed by budget/slow-peer protection.
	BytesShed int64

	stuck string // on a timeout, the nodes in the way and why
}

// OverloadResult pairs the two rounds.
type OverloadResult struct {
	Unloaded, Loaded OverloadPoint
	// Budget echoes the per-engine memory budget the rounds ran under.
	Budget int64
}

// Overload runs the unloaded baseline and the saturated round.
func Overload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg.applyDefaults()
	res := &OverloadResult{Budget: cfg.MemoryBudget}
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
	s, err := NewSession(SessionConfig{
		N: cfg.N, Rate: cfg.Rate, MsgSize: cfg.MsgSize,
		Node: func(_ int, conf *engine.Config) {
			conf.InactivityTimeout = cfg.InactivityTimeout
			conf.MemoryBudget = cfg.MemoryBudget
			conf.StallThreshold = cfg.StallThreshold
		},
	})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	if saturate {
		// Throttle every receiver's uplink below the stream rate; the
		// source keeps pumping at full rate, so interior forwarding
		// queues fill and stay full.
		for i := 1; i < cfg.N; i++ {
			s.Saturate(i, cfg.SaturateBW)
		}
		// Let the overload bite before measuring: the first slow-peer
		// shed proves the queues have been full past StallThreshold.
		overloadBy := time.Now().Add(10 * time.Second)
		for s.Shed() == 0 {
			if time.Now().After(overloadBy) {
				return nil, fmt.Errorf("saturation never engaged shedding")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	point := &OverloadPoint{Saturated: saturate}
	for _, e := range s.Engines {
		ctrl, data := e.QueueDelays()
		if ctrl > point.CtrlDelay {
			point.CtrlDelay = ctrl
		}
		if data > point.DataDelay {
			point.DataDelay = data
		}
	}

	burst := s.KillInterior(cfg.Kills, cfg.RecoveryTimeout)
	point.Failures, point.Interior, point.Orphaned = burst.Failures, burst.Interior, burst.Orphaned
	point.Recovery, point.Recovered, point.BytesLost = burst.Recovery, burst.Recovered, burst.BytesLost
	point.stuck = burst.stuck
	point.BytesShed = s.Shed()
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
	b.WriteString("  round      kills  orphaned   recovery  ctrl-delay  data-delay   maxbuf  shed(bytes)  lost(bytes)  state\n")
	row := func(name string, p OverloadPoint) {
		fmt.Fprintf(&b, "  %-9s  %5d  %8d  %9s  %10s  %10s  %7d  %11d  %11d  %s\n",
			name, p.Failures, p.Orphaned, p.Recovery.Round(time.Millisecond),
			p.CtrlDelay.Round(time.Millisecond), p.DataDelay.Round(time.Millisecond),
			p.MaxBuffered, p.BytesShed, p.BytesLost, healState(p.Recovered))
		b.WriteString(p.stuck)
	}
	row("unloaded", res.Unloaded)
	row("saturated", res.Loaded)
	base := res.Unloaded.Recovery
	if base <= 0 {
		base = time.Millisecond
	}
	fmt.Fprintf(&b, "  loaded/unloaded recovery ratio: %.2f  (per-engine budget %d bytes)\n",
		float64(res.Loaded.Recovery)/float64(base), res.Budget)
	return b.String()
}
