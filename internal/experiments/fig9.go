package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Fig9ChurnConfig parameterizes the mid-stream failure experiment: a
// multicast session is built, the stream reaches steady state, and then k
// interior (non-leaf) tree nodes are crashed simultaneously. The paper
// argues the middleware's passive failure detection plus the BrokenSource
// domino lets the dissemination structure repair itself; this measures how
// fast, and at what cost in lost bytes, as the failure burst grows.
type Fig9ChurnConfig struct {
	// N is the session size including the source (default 24).
	N int
	// MaxConcurrent is the largest simultaneous-failure burst (default 8).
	MaxConcurrent int
	// RecoveryTimeout bounds the wait for the session to heal (default 30s).
	RecoveryTimeout time.Duration
}

func (c *Fig9ChurnConfig) applyDefaults() {
	if c.N <= 0 {
		c.N = 24
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = recoveryTimeout
	}
}

// Fig9ChurnPoint is one burst size's outcome.
type Fig9ChurnPoint struct {
	// Failures is how many interior nodes were crashed at once.
	Failures int
	// Interior is how many interior nodes the tree had before the crash.
	Interior int
	// Orphaned is how many surviving receivers lost their path to the
	// source (their parent chain passed through a victim).
	Orphaned int
	// Recovery is how long until every surviving receiver was back in the
	// tree and receiving again.
	Recovery time.Duration
	// Recovered is false when the recovery timeout expired first.
	Recovered bool
	// BytesLost counts bytes dropped across the cluster by the burst.
	BytesLost int64
	// FedTwice is how many survivors more than one live node listed as a
	// child once the burst had healed — each receives every byte once per
	// lister. Reported, not asserted: Recovered does not depend on it.
	FedTwice int

	stuck string // on a timeout, the nodes in the way and why
}

// Fig9Churn runs the failure-burst sweep: for each k in 1..MaxConcurrent a
// fresh session is built and k interior nodes are killed mid-stream.
func Fig9Churn(cfg Fig9ChurnConfig) ([]Fig9ChurnPoint, error) {
	cfg.applyDefaults()
	var points []Fig9ChurnPoint
	for k := 1; k <= cfg.MaxConcurrent; k++ {
		p, err := fig9ChurnOne(k, cfg)
		if err != nil {
			return nil, fmt.Errorf("churn burst %d: %w", k, err)
		}
		points = append(points, *p)
	}
	return points, nil
}

func fig9ChurnOne(k int, cfg Fig9ChurnConfig) (*Fig9ChurnPoint, error) {
	s, err := NewSession(SessionConfig{N: cfg.N})
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	p := s.KillInterior(k, cfg.RecoveryTimeout)
	return &p, nil
}

// RenderFig9Churn formats the sweep.
func RenderFig9Churn(points []Fig9ChurnPoint) string {
	var b strings.Builder
	b.WriteString("Churn: mid-stream interior-node failure bursts — recovery latency and loss\n")
	b.WriteString("  kills  interior  orphaned   recovery   lost(bytes)  fed-twice  state\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %5d  %8d  %8d  %9s  %11d  %9d  %s\n",
			p.Failures, p.Interior, p.Orphaned,
			p.Recovery.Round(time.Millisecond), p.BytesLost, p.FedTwice, healState(p.Recovered))
		b.WriteString(p.stuck)
	}
	return b.String()
}
