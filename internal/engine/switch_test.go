package engine_test

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// gid returns the current goroutine's numeric ID by parsing the stack
// header — test-only, to observe which goroutine runs Process.
func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := strings.Fields(string(buf[:n]))
	id, _ := strconv.ParseInt(fields[1], 10, 64)
	return id
}

// gidRecorder records the goroutine ID of every Process invocation.
type gidRecorder struct {
	recorder
	mu   sync.Mutex
	gids map[int64]int
}

func (g *gidRecorder) Process(m *message.Msg) engine.Verdict {
	g.mu.Lock()
	if g.gids == nil {
		g.gids = make(map[int64]int)
	}
	g.gids[gid()]++
	g.mu.Unlock()
	return g.recorder.Process(m)
}

// TestSwitchFansInEightReceivers fans eight sources into one relay — the
// only test that puts more than two receivers on one stride scheduler —
// and checks everything reaches the sink and the status report carries
// the one switch's occupancy entry with nothing handed off.
func TestSwitchFansInEightReceivers(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7
	const sources = 8

	sink := &recorder{}
	startNode(t, n, nid(99), sink)

	relay := &recorder{}
	relay.DefaultRoutes = []message.NodeID{nid(99)}
	r := startNode(t, n, nid(50), relay)

	for i := 0; i < sources; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(50)}
		a := startNode(t, n, nid(i+1), src)
		a.StartSource(app, 0, 1024)
	}

	waitFor(t, 10*time.Second, "sink to receive data fanned in from all eight", func() bool {
		ups := r.Snapshot().Upstreams
		for _, u := range ups {
			if u.BytesTotal == 0 {
				return false
			}
		}
		return len(ups) == sources && sink.ReceivedBytes(app) > 256<<10
	})

	rp := r.Snapshot()
	if len(rp.Shards) != 1 {
		t.Fatalf("report carries %d switch entries, want exactly 1", len(rp.Shards))
	}
	if s := rp.Shards[0]; s.Shard != 0 || s.Switched == 0 || s.HandoffDepth != 0 || s.HandoffPeak != 0 {
		t.Errorf("switch entry = %+v, want shard 0 with Switched > 0 and no handoff", s)
	}
}

// TestProcessStaysSerialized loads a sink from four concurrent receiver
// goroutines and checks the paper's contract: every Algorithm.Process
// call runs on the single engine goroutine.
func TestProcessStaysSerialized(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 3

	sink := &gidRecorder{}
	startNode(t, n, nid(9), sink)

	for i := 0; i < 4; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(9)}
		a := startNode(t, n, nid(i+1), src)
		a.StartSource(app, 0, 1024)
	}

	waitFor(t, 10*time.Second, "sink to process fanned-in traffic", func() bool {
		return sink.ReceivedBytes(app) > 128<<10
	})

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.gids) != 1 {
		t.Fatalf("Process ran on %d distinct goroutines, want exactly 1: %v", len(sink.gids), sink.gids)
	}
}
