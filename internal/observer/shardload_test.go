package observer_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/vnet"
)

// TestShardLoadAggregation runs two nodes under real traffic and checks
// the observer folds the switch occupancy section of their status reports
// into the cluster view: every engine reports exactly one entry, so the
// view is one ShardLoad summed over both nodes, with work recorded and
// nothing handed off, and the rendered histogram block carries its line.
func TestShardLoadAggregation(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)

	sink := &tracker{}
	startNode(t, n, nid(2), obsID, sink)

	src := &tracker{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	startNode(t, n, nid(1), obsID, src).StartSource(5, 0, 2048)

	waitFor(t, 5*time.Second, "both nodes' switch loads in the cluster view", func() bool {
		loads := o.ShardLoads()
		return len(loads) == 1 && loads[0].Nodes == 2 && loads[0].Switched > 0
	})
	if l := o.ShardLoads()[0]; l.Shard != 0 || l.HandoffDepth != 0 || l.HandoffPeak != 0 {
		t.Errorf("cluster switch load = %+v, want shard 0 with no handoff", l)
	}

	rendered := o.RenderHists()
	for _, want := range []string{"shard 0: nodes=2", "switched="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("RenderHists missing %q:\n%s", want, rendered)
		}
	}
	if strings.Contains(rendered, "shard 1:") {
		t.Errorf("RenderHists lists a second switch lane:\n%s", rendered)
	}
}
