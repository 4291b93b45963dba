package engine_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vnet"
)

func eventKinds(evs []trace.Event) map[trace.Kind]int {
	kinds := make(map[trace.Kind]int)
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	return kinds
}

// TestTraceSmoke drives traffic between two nodes and checks that the
// flight recorder captured the link establishment and switching activity,
// that the batch/delay histograms populated, and that the whole bundle
// survives the report wire codec — the end-to-end path the observer's
// timeline is built from.
func TestTraceSmoke(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7

	sink := &recorder{}
	b := startNode(t, n, nid(2), sink)

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "sink to receive data", func() bool {
		return sink.ReceivedBytes(app) > 100*1024
	})

	kinds := eventKinds(a.Events())
	if kinds[trace.KindLinkUp] == 0 {
		t.Error("source recorded no link-up event")
	}
	if kinds[trace.KindSwitch] == 0 {
		t.Error("source recorded no switch events")
	}
	for _, ev := range a.Events() {
		if ev.Kind == trace.KindSwitch && ev.Value < 1 {
			t.Errorf("switch event with batch size %d", ev.Value)
		}
	}
	if kinds := eventKinds(b.Events()); kinds[trace.KindLinkUp] == 0 {
		t.Error("sink recorded no link-up event for the inbound link")
	}

	rp := a.Snapshot()
	if rp.SwitchBatchHist.Count() == 0 {
		t.Error("switch batch histogram is empty after switching traffic")
	}
	if rp.SendBatchHist.Count() == 0 {
		t.Error("send batch histogram is empty after sending traffic")
	}
	if rp.QueueDataHist.Count() == 0 {
		t.Error("data-lane queue delay histogram is empty")
	}

	// The report must carry events and histograms through the codec intact.
	rp.Events = a.Events()
	dec, err := protocol.DecodeReport(rp.Encode())
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if len(dec.Events) != len(rp.Events) {
		t.Fatalf("decoded %d events, encoded %d", len(dec.Events), len(rp.Events))
	}
	if dec.SwitchBatchHist.Count() != rp.SwitchBatchHist.Count() {
		t.Error("switch batch histogram lost counts in the codec")
	}
}

// TestTraceNoteFromAlgorithm checks the API.Note path lands in the same
// recorder the engine's own events use.
func TestTraceNoteFromAlgorithm(t *testing.T) {
	n := vnet.New()
	defer n.Close()

	e := startNode(t, n, nid(1), &recorder{})
	peer := nid(9)
	e.Do(func(api engine.API) {
		api.Note(trace.KindReparent, peer, 3, 1)
	})

	waitFor(t, 2*time.Second, "noted event to appear", func() bool {
		for _, ev := range e.Events() {
			if ev.Kind == trace.KindReparent && ev.Peer == peer && ev.App == 3 {
				return true
			}
		}
		return false
	})
}
