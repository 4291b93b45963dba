package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestChurnBurstsHeal is the tier-1 form of `ibench -exp churn`: bursts of
// interior-node kills against a contact-shaped session must heal inside
// the recovery timeout, every time. The timeout is far above a repair (a
// retry round is 500 ms) and far below the experiment's 30 s, so a node
// that never rejoins fails fast and is named.
func TestChurnBurstsHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak")
	}
	t.Parallel() // with the other session tests: none of them measures a rate
	cfg := Fig9ChurnConfig{N: 16, RecoveryTimeout: 5 * time.Second}
	cfg.applyDefaults()
	var points []Fig9ChurnPoint
	for round := 0; round < 2; round++ {
		for _, k := range []int{2, 4} {
			p, err := fig9ChurnOne(k, cfg)
			if err != nil {
				t.Fatalf("round %d, burst of %d: %v", round, k, err)
			}
			if p.Failures != k || p.Orphaned == 0 {
				t.Errorf("round %d: asked for %d interior kills, got %d orphaning %d",
					round, k, p.Failures, p.Orphaned)
			}
			points = append(points, *p)
		}
	}
	out := RenderFig9Churn(points)
	t.Logf("\n%s", out)
	if strings.Contains(out, "TIMEOUT") || !strings.Contains(out, "fed-twice") {
		t.Error("a burst never healed (TIMEOUT rows name the stuck nodes), or the fed-twice column is missing")
	}
}

// TestTimelineSmoke runs the flight-recorder churn demo end to end: the
// session heals, the repair shows up as reparent events, and every
// survivor's recorder tail reached the observer.
func TestTimelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak")
	}
	t.Parallel()
	cfg := TimelineConfig{N: 12, Kills: 2, RecoveryTimeout: 5 * time.Second}
	res, err := Timeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatalf("session never healed:\n%s", res.stuck)
	}
	if res.ByKind["reparent"] < 1 {
		t.Errorf("no reparent event in the merged timeline: %v", res.ByKind)
	}
	if res.Nodes < cfg.N-cfg.Kills {
		t.Errorf("%d nodes reported events, want every one of the %d survivors", res.Nodes, cfg.N-cfg.Kills)
	}
	if out := RenderTimelineResult(res); !strings.Contains(out, "recovered: true") {
		t.Errorf("render lost the outcome:\n%s", out)
	}
}

// TestSessionStuckNamesTheNode pins the diagnostic: a clean session has
// nothing to report, and when a node dies behind the session's back the
// timeout names that node and says why, instead of a bare "not steady".
func TestSessionStuckNamesTheNode(t *testing.T) {
	t.Parallel()
	s, err := NewSession(SessionConfig{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if got := s.Stuck(); got != "" {
		t.Errorf("steady session reports stuck nodes:\n%s", got)
	}

	// Nobody joined through the last node, so it is a leaf: crashing it
	// orphans no one, and the session — not told — still expects it.
	leaf := len(s.IDs) - 1
	s.Net.CrashNode(s.IDs[leaf].Addr())
	s.Engine(leaf).Stop()
	s.Mark()
	err = s.AwaitSteady(time.Second)
	if err == nil {
		t.Fatal("AwaitSteady succeeded with a crashed receiver still expected")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("node %d (%s)", leaf, s.IDs[leaf])) ||
		!strings.Contains(msg, "no bytes since mark") {
		t.Errorf("timeout does not name the crashed leaf and why:\n%s", msg)
	}
	if n := strings.Count(msg, "\n  node "); n != 1 {
		t.Errorf("timeout names %d nodes, want only the crashed leaf:\n%s", n, msg)
	}
}
