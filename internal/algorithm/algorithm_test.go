package algorithm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algorithm"
	"repro/internal/algtest"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
)

func nid(i int) message.NodeID {
	return message.NodeID{IP: 10<<24 | uint32(i), Port: 7000}
}

func attached(t *testing.T) (*algorithm.Base, *algtest.FakeAPI) {
	t.Helper()
	api := algtest.New(nid(1))
	b := &algorithm.Base{}
	b.Attach(api)
	return b, api
}

func TestAttachInitializesState(t *testing.T) {
	b, api := attached(t)
	if b.API != engine.API(api) {
		t.Error("Attach did not store API")
	}
	if b.Known == nil || b.Known.Len() != 0 {
		t.Error("Attach did not initialize empty KnownHosts")
	}
	if b.Rng == nil {
		t.Error("Attach did not seed Rng")
	}
}

// TestRngStreamMatchesSeededSource: an attached Base's Rng, whose source
// is seeded on the first draw, yields exactly the stream of
// rand.New(rand.NewSource(seed)) for the node's identity seed — the
// randomized experiments depend on it — across Intn, Float64, Perm and
// Uint64 draws and a re-seed.
func TestRngStreamMatchesSeededSource(t *testing.T) {
	for _, id := range []message.NodeID{
		nid(1), nid(42), {IP: 127<<24 | 1, Port: 9000}, {IP: 0xffffffff, Port: 65535},
	} {
		b := &algorithm.Base{}
		b.Attach(algtest.New(id))
		want := rand.New(rand.NewSource(int64(id.IP)<<32 | int64(id.Port)))
		check := func(what string, i int, got, exp any) {
			t.Helper()
			if got != exp {
				t.Fatalf("%v: draw %d of %s = %v, want %v", id, i, what, got, exp)
			}
		}
		for i := 0; i < 1000; i++ {
			check("Intn", i, b.Rng.Intn(1000+i), want.Intn(1000+i))
			check("Float64", i, b.Rng.Float64(), want.Float64())
			check("Perm", i, fmt.Sprint(b.Rng.Perm(8)), fmt.Sprint(want.Perm(8)))
			check("Uint64", i, b.Rng.Uint64(), want.Uint64())
		}
		b.Rng.Seed(int64(id.Port))
		want.Seed(int64(id.Port))
		for i := 0; i < 100; i++ {
			check("Int63 after Seed", i, b.Rng.Int63(), want.Int63())
		}
	}
}

func TestBootReplyRecordsKnownHosts(t *testing.T) {
	b, _ := attached(t)
	hosts := []message.NodeID{nid(2), nid(3), nid(1)} // includes self
	payload := protocol.BootReply{Hosts: hosts}.Encode()
	m := message.New(protocol.TypeBootReply, nid(99), 0, 0, payload)
	if v := b.Process(m); v != engine.Done {
		t.Fatalf("verdict = %v, want Done", v)
	}
	if b.Known.Len() != 2 {
		t.Fatalf("Known.Len() = %d, want 2 (self excluded)", b.Known.Len())
	}
	if b.Known.Contains(nid(1)) {
		t.Error("Known contains self")
	}
	for _, h := range []message.NodeID{nid(2), nid(3)} {
		if !b.Known.Contains(h) {
			t.Errorf("Known missing %v", h)
		}
	}
}

func TestDeployStartsSource(t *testing.T) {
	b, api := attached(t)
	d := protocol.Deploy{App: 7, Rate: 400 << 10, MsgSize: 5120}
	m := message.New(protocol.TypeDeploy, nid(9), 7, 0, d.Encode())
	b.Process(m)
	if len(api.Sources) != 1 {
		t.Fatalf("StartSource calls = %d, want 1", len(api.Sources))
	}
	got := api.Sources[0]
	if got.App != 7 || got.Rate != 400<<10 || got.MsgSize != 5120 || got.Stopped {
		t.Errorf("StartSource = %+v", got)
	}
}

func TestTerminateAppStopsSource(t *testing.T) {
	b, api := attached(t)
	d := protocol.Deploy{App: 7}
	m := message.New(protocol.TypeTerminateApp, nid(9), 7, 0, d.Encode())
	b.Process(m)
	if len(api.Sources) != 1 || !api.Sources[0].Stopped || api.Sources[0].App != 7 {
		t.Errorf("StopSource calls = %+v", api.Sources)
	}
}

func TestLinkUpAddsPeerToKnown(t *testing.T) {
	b, _ := attached(t)
	le := protocol.LinkEvent{Peer: nid(5), Upstream: true}
	b.Process(message.New(protocol.TypeLinkUp, nid(5), 0, 0, le.Encode()))
	if !b.Known.Contains(nid(5)) {
		t.Error("LinkUp peer not recorded in KnownHosts")
	}
}

func TestUnknownTypesAreDone(t *testing.T) {
	b, api := attached(t)
	for _, typ := range []message.Type{
		protocol.TypeLinkDown, protocol.TypeBrokenSource, protocol.TypeTick,
		message.FirstDataType, message.FirstDataType + 99,
	} {
		m := message.New(typ, nid(2), 0, 0, nil)
		if v := b.Process(m); v != engine.Done {
			t.Errorf("Process(%d) = %v, want Done", typ, v)
		}
	}
	if len(api.Sends) != 0 {
		t.Errorf("default handlers sent %d messages, want 0", len(api.Sends))
	}
}

func TestDisseminateProbabilityOne(t *testing.T) {
	b, api := attached(t)
	targets := []message.NodeID{nid(2), nid(3), nid(4), nid(1)} // self filtered
	m := message.New(protocol.TypeCustom, nid(1), 0, 0, nil)
	n := b.Disseminate(m, targets, 1.0)
	if n != 3 || len(api.Sends) != 3 {
		t.Errorf("Disseminate(p=1) sent %d/%d, want 3", n, len(api.Sends))
	}
}

func TestDisseminateProbabilityZero(t *testing.T) {
	b, api := attached(t)
	m := message.New(protocol.TypeCustom, nid(1), 0, 0, nil)
	n := b.Disseminate(m, []message.NodeID{nid(2), nid(3)}, 0)
	if n != 0 || len(api.Sends) != 0 {
		t.Errorf("Disseminate(p=0) sent %d, want 0", n)
	}
}

func TestDisseminateFractionalProbability(t *testing.T) {
	b, _ := attached(t)
	targets := make([]message.NodeID, 50)
	for i := range targets {
		targets[i] = nid(i + 2)
	}
	total := 0
	const rounds = 40
	for i := 0; i < rounds; i++ {
		m := message.New(protocol.TypeCustom, nid(1), 0, 0, nil)
		total += b.Disseminate(m, targets, 0.5)
	}
	mean := float64(total) / rounds
	if mean < 15 || mean > 35 {
		t.Errorf("Disseminate(p=0.5) mean fan-out = %.1f over %d targets, want ~25", mean, len(targets))
	}
}

func TestKnownHostsAddRemove(t *testing.T) {
	k := algorithm.NewKnownHosts()
	if k.Add(message.ZeroID) {
		t.Error("Add(ZeroID) succeeded")
	}
	if !k.Add(nid(1)) || !k.Add(nid(2)) || !k.Add(nid(3)) {
		t.Fatal("Add of fresh hosts failed")
	}
	if k.Add(nid(2)) {
		t.Error("duplicate Add succeeded")
	}
	if k.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", k.Len())
	}
	if !k.Remove(nid(2)) {
		t.Error("Remove of present host failed")
	}
	if k.Remove(nid(2)) {
		t.Error("Remove of absent host succeeded")
	}
	all := k.All()
	if len(all) != 2 || all[0] != nid(1) || all[1] != nid(3) {
		t.Errorf("All() = %v, want [1,3] in insertion order", all)
	}
	// Index consistency after removal.
	if !k.Contains(nid(3)) || k.Contains(nid(2)) {
		t.Error("Contains inconsistent after Remove")
	}
	if !k.Remove(nid(1)) || !k.Remove(nid(3)) || k.Len() != 0 {
		t.Error("could not drain KnownHosts")
	}
}

func TestKnownHostsRandomSample(t *testing.T) {
	k := algorithm.NewKnownHosts()
	for i := 1; i <= 10; i++ {
		k.Add(nid(i))
	}
	rng := rand.New(rand.NewSource(1))
	sample := k.Random(4, rng)
	if len(sample) != 4 {
		t.Fatalf("Random(4) returned %d", len(sample))
	}
	seen := make(map[message.NodeID]bool)
	for _, id := range sample {
		if seen[id] {
			t.Errorf("Random returned duplicate %v", id)
		}
		seen[id] = true
		if !k.Contains(id) {
			t.Errorf("Random returned unknown host %v", id)
		}
	}
	// Requesting more than available returns everything.
	if got := k.Random(99, rng); len(got) != 10 {
		t.Errorf("Random(99) returned %d, want 10", len(got))
	}
}
