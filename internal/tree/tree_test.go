package tree

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/algtest"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
)

func nid(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.0.2.%d", i), 7000)
}

const app = 1

func newTree(v Variant, self message.NodeID, lastMile int64) (*Tree, *algtest.FakeAPI) {
	api := algtest.New(self)
	tr := &Tree{Variant: v, App: app, LastMile: lastMile}
	tr.Attach(api)
	return tr, api
}

func deliver(t *testing.T, tr *Tree, m *message.Msg) {
	t.Helper()
	if v := tr.Process(m); v != engine.Done {
		t.Fatalf("verdict = %v, want Done", v)
	}
	m.Release()
}

func TestCodecsRoundTrip(t *testing.T) {
	q := Query{App: 3, Joiner: nid(4), Hops: 7}
	gq, err := DecodeQuery(q.Encode())
	if err != nil || gq != q {
		t.Errorf("query round trip = %+v, %v", gq, err)
	}
	a := Announce{App: 3, Source: nid(9)}
	ga, err := DecodeAnnounce(a.Encode())
	if err != nil || ga != a {
		t.Errorf("announce round trip = %+v, %v", ga, err)
	}
	s := StressMsg{App: 3, Value: 1.25}
	gs, err := DecodeStress(s.Encode())
	if err != nil || gs != s {
		t.Errorf("stress round trip = %+v, %v", gs, err)
	}
}

func TestVariantString(t *testing.T) {
	if Unicast.String() != "unicast" || Random.String() != "random" ||
		StressAware.String() != "ns-aware" || Variant(0).String() != "unknown" {
		t.Error("Variant.String mismatch")
	}
}

func TestDeployMakesSourceAndFloodsAnnounce(t *testing.T) {
	tr, api := newTree(StressAware, nid(1), 200<<10)
	tr.Known.Add(nid(2))
	tr.Known.Add(nid(3))
	d := protocol.Deploy{App: app, Rate: 100 << 10, MsgSize: 1024}
	deliver(t, tr, message.New(protocol.TypeDeploy, nid(0), app, 0, d.Encode()))

	if !tr.IsSource() || !tr.InSession() {
		t.Error("deploy did not mark node as source")
	}
	if len(api.Sources) != 1 || api.Sources[0].App != app {
		t.Errorf("StartSource calls = %+v", api.Sources)
	}
	if got := len(api.SentOfType(TypeAnnounce)); got != 2 {
		t.Errorf("announce flood = %d messages, want 2", got)
	}
}

func TestJoinSendsQueryToContact(t *testing.T) {
	tr, api := newTree(Random, nid(2), 100<<10)
	j := protocol.Join{App: app, Contact: nid(1)}
	deliver(t, tr, message.New(protocol.TypeJoin, nid(0), app, 0, j.Encode()))
	sent := api.SentTo(nid(1))
	if len(sent) != 1 || sent[0].Msg.Type() != TypeQuery {
		t.Fatalf("join sent %v", sent)
	}
	q, err := DecodeQuery(sent[0].Msg.Payload())
	if err != nil || q.Joiner != nid(2) || q.App != app {
		t.Errorf("query = %+v, %v", q, err)
	}
}

func TestRandomVariantAcceptsImmediately(t *testing.T) {
	tr, api := newTree(Random, nid(1), 100<<10)
	tr.Process(message.New(protocol.TypeDeploy, nid(0), app, 0, protocol.Deploy{App: app}.Encode()))
	q := Query{App: app, Joiner: nid(5)}
	deliver(t, tr, message.New(TypeQuery, nid(5), app, 0, q.Encode()))
	acks := api.SentOfType(TypeQueryAck)
	if len(acks) != 1 || acks[0].Dest != nid(5) {
		t.Fatalf("acks = %+v", acks)
	}
	if ch := tr.Children(); len(ch) != 1 || ch[0] != nid(5) {
		t.Errorf("children = %v", ch)
	}
	// A duplicate query means the joiner is still outside the session (its
	// ack was lost, or its state was reset after the ack): it is
	// acknowledged again, and still listed once.
	deliver(t, tr, message.New(TypeQuery, nid(5), app, 0, q.Encode()))
	if len(tr.Children()) != 1 {
		t.Error("duplicate query duplicated child")
	}
	if acks := api.SentOfType(TypeQueryAck); len(acks) != 2 || acks[1].Dest != nid(5) {
		t.Errorf("duplicate query from a listed child was not re-acknowledged: acks = %+v", acks)
	}
}

func TestUnicastForwardsToSource(t *testing.T) {
	tr, api := newTree(Unicast, nid(2), 100<<10)
	// Node 2 is in the session (parent nid(1)) and knows the source.
	deliver(t, tr, message.New(TypeAnnounce, nid(1), app, 0,
		Announce{App: app, Source: nid(1)}.Encode()))
	deliver(t, tr, message.New(TypeQueryAck, nid(1), app, 0,
		Query{App: app, Joiner: nid(2)}.Encode()))

	q := Query{App: app, Joiner: nid(5)}
	deliver(t, tr, message.New(TypeQuery, nid(5), app, 0, q.Encode()))
	fwd := api.SentOfType(TypeQuery)
	if len(fwd) != 1 || fwd[0].Dest != nid(1) {
		t.Fatalf("unicast forward = %+v, want toward source nid(1)", fwd)
	}
	if len(api.SentOfType(TypeQueryAck)) != 0 {
		t.Error("unicast non-source accepted a joiner")
	}
}

func TestQueryAckJoins(t *testing.T) {
	tr, _ := newTree(StressAware, nid(5), 100<<10)
	deliver(t, tr, message.New(TypeQueryAck, nid(2), app, 0,
		Query{App: app, Joiner: nid(5)}.Encode()))
	if !tr.InSession() {
		t.Fatal("ack did not join session")
	}
	if p, ok := tr.Parent(); !ok || p != nid(2) {
		t.Errorf("parent = %v, %v", p, ok)
	}
	if tr.JoinedAt() == 0 {
		t.Error("JoinedAt not recorded")
	}
	// A second ack does not re-parent (first wins).
	deliver(t, tr, message.New(TypeQueryAck, nid(3), app, 0,
		Query{App: app, Joiner: nid(5)}.Encode()))
	if p, _ := tr.Parent(); p != nid(2) {
		t.Errorf("second ack re-parented to %v", p)
	}
}

func TestStressComputation(t *testing.T) {
	tr, _ := newTree(StressAware, nid(1), 200<<10) // 2 stress units
	if got := tr.Stress(); got != 0 {
		t.Errorf("stress with degree 0 = %v", got)
	}
	deliver(t, tr, message.New(TypeQueryAck, nid(2), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode())) // gain a parent
	if got := tr.Stress(); got != 0.5 {
		t.Errorf("stress deg1/bw2 = %v, want 0.5", got)
	}
}

func TestStressAwareForwardsToMinStressNeighbor(t *testing.T) {
	// S (bw 200, in session with children D and A) receives a query. A has
	// lower stress than S and D, so the query must be forwarded to A —
	// the Table 3 construction step for node C.
	s, api := newTree(StressAware, nid(0), 200<<10)
	s.Process(message.New(protocol.TypeDeploy, nid(0), app, 0, protocol.Deploy{App: app}.Encode()))
	// Children D (stress 1.0) and A (stress 0.2) with reported stress.
	for _, join := range []struct {
		id message.NodeID
		st float64
	}{{nid(4), 1.0}, {nid(1), 0.2}} {
		q := Query{App: app, Joiner: join.id}
		s.Process(message.New(TypeQuery, join.id, app, 0, q.Encode()))
		s.Process(message.New(TypeStress, join.id, app, 0,
			StressMsg{App: app, Value: join.st}.Encode()))
	}
	api.Reset()
	// S's own stress is now 2/2 = 1.0; A's 0.2 wins.
	q := Query{App: app, Joiner: nid(3)}
	deliver(t, s, message.New(TypeQuery, nid(3), app, 0, q.Encode()))
	fwd := api.SentOfType(TypeQuery)
	if len(fwd) != 1 || fwd[0].Dest != nid(1) {
		t.Fatalf("ns-aware forward = %+v, want to nid(1)", fwd)
	}
	if len(api.SentOfType(TypeQueryAck)) != 0 {
		t.Error("S accepted despite higher stress")
	}
}

func TestStressAwareAcceptsAtLocalMinimum(t *testing.T) {
	a, api := newTree(StressAware, nid(1), 500<<10) // 5 units
	// A is in session with parent S whose stress is high.
	deliver(t, a, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode()))
	deliver(t, a, message.New(TypeStress, nid(0), app, 0,
		StressMsg{App: app, Value: 1.0}.Encode()))
	// A's stress 1/5 = 0.2 < parent's 1.0: accept.
	q := Query{App: app, Joiner: nid(3)}
	deliver(t, a, message.New(TypeQuery, nid(3), app, 0, q.Encode()))
	acks := api.SentOfType(TypeQueryAck)
	if len(acks) != 1 || acks[0].Dest != nid(3) {
		t.Fatalf("acks = %+v", acks)
	}
}

func TestQueryTTLForcesAccept(t *testing.T) {
	s, api := newTree(StressAware, nid(0), 100<<10)
	s.Process(message.New(protocol.TypeDeploy, nid(0), app, 0, protocol.Deploy{App: app}.Encode()))
	// Child with lower stress would normally win the forward.
	s.Process(message.New(TypeQuery, nid(4), app, 0, Query{App: app, Joiner: nid(4)}.Encode()))
	s.Process(message.New(TypeStress, nid(4), app, 0, StressMsg{App: app, Value: 0.01}.Encode()))
	api.Reset()
	q := Query{App: app, Joiner: nid(3), Hops: queryTTL}
	deliver(t, s, message.New(TypeQuery, nid(3), app, 0, q.Encode()))
	if len(api.SentOfType(TypeQueryAck)) != 1 {
		t.Error("TTL-expired query was not accepted")
	}
}

func TestNonTreeNodeRelaysQuery(t *testing.T) {
	tr, api := newTree(StressAware, nid(2), 100<<10)
	deliver(t, tr, message.New(TypeAnnounce, nid(9), app, 0,
		Announce{App: app, Source: nid(9)}.Encode()))
	q := Query{App: app, Joiner: nid(5)}
	deliver(t, tr, message.New(TypeQuery, nid(5), app, 0, q.Encode()))
	fwd := api.SentOfType(TypeQuery)
	if len(fwd) != 1 || fwd[0].Dest != nid(9) {
		t.Fatalf("relay = %+v, want toward announced source", fwd)
	}
	got, _ := DecodeQuery(fwd[0].Msg.Payload())
	if got.Hops != 1 {
		t.Errorf("relayed hops = %d, want 1", got.Hops)
	}
}

func TestAnnounceRefloodsOnce(t *testing.T) {
	tr, api := newTree(StressAware, nid(2), 100<<10)
	tr.Known.Add(nid(3))
	a := Announce{App: app, Source: nid(9)}
	deliver(t, tr, message.New(TypeAnnounce, nid(9), app, 0, a.Encode()))
	first := len(api.SentOfType(TypeAnnounce))
	if first != 1 {
		t.Fatalf("first announce reflood = %d sends, want 1", first)
	}
	deliver(t, tr, message.New(TypeAnnounce, nid(9), app, 0, a.Encode()))
	if got := len(api.SentOfType(TypeAnnounce)); got != first {
		t.Error("announce re-flooded more than once")
	}
}

func TestDataForwardedToChildrenAndCounted(t *testing.T) {
	tr, api := newTree(Random, nid(1), 100<<10)
	tr.Process(message.New(protocol.TypeDeploy, nid(0), app, 0, protocol.Deploy{App: app}.Encode()))
	tr.Process(message.New(TypeQuery, nid(5), app, 0, Query{App: app, Joiner: nid(5)}.Encode()))
	tr.Process(message.New(TypeQuery, nid(6), app, 0, Query{App: app, Joiner: nid(6)}.Encode()))
	api.Reset()
	m := message.New(message.FirstDataType, nid(1), app, 0, make([]byte, 512))
	deliver(t, tr, m)
	if got := tr.ReceivedBytes(); got != 512 {
		t.Errorf("ReceivedBytes = %d, want 512", got)
	}
	if len(api.SentTo(nid(5))) != 1 || len(api.SentTo(nid(6))) != 1 {
		t.Error("data not copied to both children")
	}
}

func TestStressTickExchangesWithNeighbors(t *testing.T) {
	tr, api := newTree(StressAware, nid(1), 100<<10)
	if len(api.Timers) != 1 {
		t.Fatalf("Attach scheduled %d timers, want 1", len(api.Timers))
	}
	// Acquire a parent and a child.
	deliver(t, tr, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode()))
	deliver(t, tr, message.New(TypeQuery, nid(5), app, 0,
		Query{App: app, Joiner: nid(5)}.Encode()))
	api.Reset()
	deliver(t, tr, message.New(protocol.TypeTick, nid(1), 0, 0,
		protocol.Tick{Kind: tickStress}.Encode()))
	stress := api.SentOfType(TypeStress)
	if len(stress) != 2 {
		t.Fatalf("stress exchange = %d sends, want 2 (parent+child)", len(stress))
	}
	if len(api.Timers) != 1 {
		t.Error("tick did not reschedule itself")
	}
}

func TestLinkDownRemovesChildAndParent(t *testing.T) {
	tr, _ := newTree(StressAware, nid(1), 100<<10)
	deliver(t, tr, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode()))
	deliver(t, tr, message.New(TypeQuery, nid(5), app, 0,
		Query{App: app, Joiner: nid(5)}.Encode()))

	// Child's outgoing link fails.
	deliver(t, tr, message.New(protocol.TypeLinkDown, nid(1), 0, 0,
		protocol.LinkEvent{Peer: nid(5), Upstream: false}.Encode()))
	if len(tr.Children()) != 0 {
		t.Error("dead child not removed")
	}
	// Parent's incoming link fails.
	deliver(t, tr, message.New(protocol.TypeLinkDown, nid(1), 0, 0,
		protocol.LinkEvent{Peer: nid(0), Upstream: true}.Encode()))
	if tr.InSession() {
		t.Error("still in session after parent loss")
	}
	if _, ok := tr.Parent(); ok {
		t.Error("parent not cleared")
	}
}

func TestAutoRejoinAfterParentLoss(t *testing.T) {
	tr, api := newTree(StressAware, nid(1), 100<<10)
	tr.AutoRejoin = true
	tr.Known.Add(nid(0))
	tr.Known.Add(nid(7))
	deliver(t, tr, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode()))
	api.Reset()
	deliver(t, tr, message.New(protocol.TypeLinkDown, nid(1), 0, 0,
		protocol.LinkEvent{Peer: nid(0), Upstream: true}.Encode()))
	q := api.SentOfType(TypeQuery)
	if len(q) != 1 {
		t.Fatalf("rejoin queries = %d, want 1", len(q))
	}
	if q[0].Dest == nid(0) {
		t.Error("rejoin query sent to the dead parent")
	}
}

func TestBrokenSourceDetachesAndRejoins(t *testing.T) {
	tr, api := newTree(Random, nid(1), 100<<10)
	tr.AutoRejoin = true
	tr.Known.Add(nid(7))
	deliver(t, tr, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode()))
	if !tr.InSession() {
		t.Fatal("not in session after ack")
	}
	api.Reset()

	// The supply broke somewhere above the parent: the link to the parent
	// is still up, but the subtree is starved. The node must drop out of
	// the session (so it stops accepting joiners into a dead subtree) and
	// immediately try to rejoin.
	deliver(t, tr, message.New(protocol.TypeBrokenSource, nid(0), 0, 0,
		protocol.BrokenSource{App: app, Upstream: nid(9)}.Encode()))
	if tr.InSession() {
		t.Error("still in session after BrokenSource")
	}
	if _, ok := tr.Parent(); ok {
		t.Error("parent kept after BrokenSource")
	}
	if q := api.SentOfType(TypeQuery); len(q) != 1 {
		t.Errorf("rejoin queries = %d, want 1", len(q))
	}

	// A BrokenSource for some other app must be ignored.
	tr2, _ := newTree(Random, nid(2), 100<<10)
	deliver(t, tr2, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(2)}.Encode()))
	deliver(t, tr2, message.New(protocol.TypeBrokenSource, nid(0), 0, 0,
		protocol.BrokenSource{App: app + 1, Upstream: nid(9)}.Encode()))
	if !tr2.InSession() {
		t.Error("BrokenSource for another app detached the tree")
	}
}

func TestJoinedAtTimestampOrdering(t *testing.T) {
	tr, _ := newTree(Random, nid(1), 100<<10)
	before := time.Now().UnixNano()
	deliver(t, tr, message.New(TypeQueryAck, nid(0), app, 0,
		Query{App: app, Joiner: nid(1)}.Encode()))
	after := time.Now().UnixNano()
	got := tr.JoinedAt()
	if got < before || got > after {
		t.Errorf("JoinedAt = %d outside [%d, %d]", got, before, after)
	}
}
