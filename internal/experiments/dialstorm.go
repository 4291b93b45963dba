package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
)

// DialStormConfig parameterizes the connection-storm experiment: a live
// multicast session whose source and hottest interior forwarders are
// flooded with half-open connections from thousands of spoofed sources.
// The admission gate must shed the storm at the listener — bounded
// in-flight handshakes, Busy refusals, greylisting — while the
// established tree keeps streaming and the control lane stays empty.
type DialStormConfig struct {
	// N is the session size including the source (default 16).
	N int
	// Rate is the source's send rate in bytes/sec (default 256 KBps).
	Rate int64
	// MsgSize is the data payload size (default 1 KB).
	MsgSize int
	// MaxHandshakes is the per-engine in-flight handshake cap (default
	// admission.DefaultMaxHandshakes).
	MaxHandshakes int
	// StormRate is the dial rate per stormed listener in dials/sec
	// (default 400).
	StormRate int64
	// StormFor is how long the storm runs (default 2s).
	StormFor time.Duration
	// Targets is how many listeners are stormed: the source plus the
	// interior nodes with the most children (default 3).
	Targets int
	// Linger is how long each half-open connection pins its handshake
	// token before hanging up (default 300ms).
	Linger time.Duration
	// MeasureWindow is the pre-storm throughput sampling window
	// (default 1s).
	MeasureWindow time.Duration
	// RecoveryTimeout bounds the post-storm steady-state wait (default 30s).
	RecoveryTimeout time.Duration
}

func (c *DialStormConfig) applyDefaults() {
	if c.N <= 0 {
		c.N = 16
	}
	if c.Rate <= 0 {
		c.Rate = 256 << 10
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 1 << 10
	}
	if c.MaxHandshakes <= 0 {
		c.MaxHandshakes = admission.DefaultMaxHandshakes
	}
	if c.StormRate <= 0 {
		c.StormRate = 400
	}
	if c.StormFor <= 0 {
		c.StormFor = 2 * time.Second
	}
	if c.Targets <= 0 {
		c.Targets = 3
	}
	if c.Linger <= 0 {
		c.Linger = stormLinger
	}
	if c.MeasureWindow <= 0 {
		c.MeasureWindow = time.Second
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 30 * time.Second
	}
}

// DialStormResult is the experiment's outcome.
type DialStormResult struct {
	// Targets lists the stormed node indices (0 is the source).
	Targets []int
	// Dials is how many storm connections were attempted.
	Dials int64
	// PreRate and StormTput are aggregate receiver delivery in bytes/sec
	// before and during the storm: established links must not starve.
	PreRate, StormTput float64
	// CtrlDelay is the worst control-lane queueing delay sampled on any
	// stormed engine while the storm ran; admission work never queues
	// behind the data plane, so it stays near zero.
	CtrlDelay time.Duration
	// InFlightPeak is the highest concurrent handshake count any stormed
	// engine saw; it must stay at or under Cap.
	InFlightPeak int64
	Cap          int64
	// Admission outcomes summed over the stormed engines.
	Admitted, ShedBusy, ShedRate, ShedGreylist int64
	// HandshakesFailed counts admitted storm connections that then died
	// pre-registration (bad hello or timeout); AcceptRetries counts
	// transient listener errors survived.
	HandshakesFailed, AcceptRetries int64
	// Recovered/Recovery report the post-storm steady-state probe.
	Recovered bool
	Recovery  time.Duration

	stuck string // on a timeout, the nodes in the way and why
}

// DialStorm runs the connection-storm experiment.
func DialStorm(cfg DialStormConfig) (*DialStormResult, error) {
	cfg.applyDefaults()
	s, err := NewSession(SessionConfig{
		N: cfg.N, Rate: cfg.Rate, MsgSize: cfg.MsgSize,
		Node: func(_ int, conf *engine.Config) {
			conf.Admission.MaxHandshakes = cfg.MaxHandshakes
		},
	})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	res := &DialStormResult{Cap: int64(cfg.MaxHandshakes)}
	res.PreRate = rateOver(cfg.MeasureWindow, s.ReceivedTotal)

	// Storm the source plus the interior nodes with the widest fan-out:
	// those listeners carry the most established links, so starving them
	// would hurt the stream the most.
	widest := s.Interior()
	res.Targets = append([]int{0}, widest[:min(cfg.Targets-1, len(widest))]...)

	// Sample the stormed engines' control-lane delay while the storm runs:
	// the acceptance criterion is that admission work never queues repair
	// traffic behind the flood.
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(10 * time.Millisecond):
			}
			for _, idx := range res.Targets {
				if ctrl, _ := s.Engine(idx).QueueDelays(); ctrl > res.CtrlDelay {
					res.CtrlDelay = ctrl
				}
			}
		}
	}()

	res.Dials, res.StormTput = s.DialStorm(res.Targets, cfg.StormRate, cfg.StormFor, cfg.Linger)
	s.Mark()
	start := time.Now()
	res.Recovered = s.AwaitSteady(cfg.RecoveryTimeout) == nil
	res.Recovery = time.Since(start)
	close(stopSampling)
	samplerDone.Wait()
	if !res.Recovered {
		res.stuck = s.Stuck()
	}

	for _, idx := range res.Targets {
		e := s.Engine(idx)
		st := e.Admission()
		if st.InFlightPeak > res.InFlightPeak {
			res.InFlightPeak = st.InFlightPeak
		}
		res.Admitted += st.Admitted
		res.ShedBusy += st.ShedBusy
		res.ShedRate += st.ShedRate
		res.ShedGreylist += st.ShedGreylist
		cnt := e.Counters()
		res.HandshakesFailed += cnt.HandshakesFailed
		res.AcceptRetries += cnt.AcceptRetries
	}
	return res, nil
}

// RenderDialStorm formats the experiment's outcome.
func RenderDialStorm(res *DialStormResult) string {
	var b strings.Builder
	b.WriteString("DialStorm: half-open connection flood vs a live stream\n")
	fmt.Fprintf(&b, "  stormed listeners %v, %d dials attempted\n", res.Targets, res.Dials)
	fmt.Fprintf(&b, "  delivered  pre-storm %8.1f KB/s   during storm %8.1f KB/s  (%.0f%% retained)\n",
		res.PreRate/KB, res.StormTput/KB, 100*res.StormTput/max1(res.PreRate))
	fmt.Fprintf(&b, "  handshakes in-flight peak %d / cap %d   ctrl-delay max %s\n",
		res.InFlightPeak, res.Cap, res.CtrlDelay.Round(time.Millisecond))
	fmt.Fprintf(&b, "  admission  admitted %d  shed busy %d / rate %d / greylist %d\n",
		res.Admitted, res.ShedBusy, res.ShedRate, res.ShedGreylist)
	fmt.Fprintf(&b, "  aftermath  failed handshakes %d  accept retries %d\n",
		res.HandshakesFailed, res.AcceptRetries)
	fmt.Fprintf(&b, "  post-storm steady state: %s in %s\n",
		healState(res.Recovered), res.Recovery.Round(time.Millisecond))
	b.WriteString(res.stuck)
	return b.String()
}

func max1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}
