package experiments

import (
	"testing"
	"time"
)

// TestOverloadRecoveryWithinFactor is the acceptance check for control-
// plane isolation: with every receiver uplink saturated, killing interior
// nodes must still repair within a small factor of the unloaded baseline,
// because failure detection and rejoin ride the priority lane instead of
// waiting behind the queued data.
func TestOverloadRecoveryWithinFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak")
	}
	cfg := OverloadConfig{N: 14, Kills: 2}
	res, err := Overload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderOverload(res))

	if !res.Unloaded.Recovered {
		t.Fatal("unloaded round never recovered")
	}
	if !res.Loaded.Recovered {
		t.Fatal("saturated round never recovered")
	}
	// Saturation must have been real: a deep data backlog with control
	// overtaking it.
	if res.Loaded.DataDelay < 100*time.Millisecond {
		t.Errorf("saturated data-lane delay = %v; overload never built a backlog",
			res.Loaded.DataDelay)
	}
	if res.Loaded.CtrlDelay > res.Loaded.DataDelay/4 {
		t.Errorf("control-lane delay %v not well below data-lane delay %v under saturation",
			res.Loaded.CtrlDelay, res.Loaded.DataDelay)
	}
	// Recovery under overload stays within 3x the unloaded baseline.
	// Sub-timeout recoveries are dominated by the passive failure
	// detection window, so the baseline is floored there: a 10ms RST-path
	// repair does not make 30ms the budget for the loaded round.
	base := res.Unloaded.Recovery
	if floor := 600 * time.Millisecond; base < floor {
		base = floor
	}
	if res.Loaded.Recovery > 3*base {
		t.Errorf("saturated recovery %v exceeds 3x the unloaded baseline (%v)",
			res.Loaded.Recovery, base)
	}
}
