package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
)

// DialStormConfig parameterizes the connection-storm experiment: a live
// multicast session whose source and hottest interior forwarders are
// flooded with half-open connections from thousands of spoofed sources.
// The admission gate must shed the storm at the listener — bounded
// in-flight handshakes, Busy refusals, greylisting — while the
// established tree keeps streaming and the control lane stays empty.
// Every engine runs the default gate. The storm dials each of
// stormTargets listeners — the source plus the interior nodes with the
// most children — stormRate times a second, and delivery is sampled over
// one second before it.
type DialStormConfig struct {
	// N is the session size including the source (default 16).
	N int
	// StormFor is how long the storm runs (default 2s).
	StormFor time.Duration
}

const (
	stormRate    = 400 // dials/sec per stormed listener
	stormTargets = 3
)

func (c *DialStormConfig) applyDefaults() {
	if c.N <= 0 {
		c.N = 16
	}
	if c.StormFor <= 0 {
		c.StormFor = 2 * time.Second
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
	s, err := NewSession(SessionConfig{N: cfg.N})
	if err != nil {
		return nil, err
	}
	defer s.Stop()

	res := &DialStormResult{Cap: admission.DefaultMaxHandshakes}
	res.PreRate = rateOver(time.Second, s.ReceivedTotal)

	// Storm the source plus the interior nodes with the widest fan-out:
	// those listeners carry the most established links, so starving them
	// would hurt the stream the most.
	widest := s.Interior()
	res.Targets = append([]int{0}, widest[:min(stormTargets-1, len(widest))]...)

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

	res.Dials, res.StormTput = s.DialStorm(res.Targets, stormRate, cfg.StormFor)
	s.Mark()
	start := time.Now()
	res.Recovered = s.AwaitSteady(recoveryTimeout) == nil
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
