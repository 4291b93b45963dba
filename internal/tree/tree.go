// Package tree implements the paper's second case study (Section 3.3):
// construction of data dissemination multicast trees when the "last-mile"
// bandwidth of overlay nodes is the bottleneck. Three algorithms are
// provided, exactly as evaluated in the paper:
//
//   - all-unicast: every joiner is forwarded to the session source, which
//     accepts all children (a star).
//   - randomized: the first tree node contacted accepts immediately.
//   - node-stress aware (ns-aware): nodes periodically exchange node
//     stress (degree divided by last-mile bandwidth) with their parent
//     and children; an sQuery is recursively forwarded to the
//     minimum-stress neighbor until it reaches a local minimum, which
//     acknowledges and adopts the joiner.
package tree

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithm"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Variant selects the construction algorithm.
type Variant int

// The three tree-construction algorithms of the paper.
const (
	Unicast Variant = iota + 1
	Random
	StressAware
)

// String renders the variant as the paper names it.
func (v Variant) String() string {
	switch v {
	case Unicast:
		return "unicast"
	case Random:
		return "random"
	case StressAware:
		return "ns-aware"
	default:
		return "unknown"
	}
}

// Algorithm-specific control message types (sQuery, sQueryAck, sAnnounce,
// and the stress exchange).
const (
	TypeQuery    message.Type = 100
	TypeQueryAck message.Type = 101
	TypeAnnounce message.Type = 102
	TypeStress   message.Type = 103
)

// queryTTL bounds sQuery relaying so stale stress information cannot
// cycle a query forever.
const queryTTL = 32

// DefaultStressInterval paces the periodic stress exchange.
const DefaultStressInterval = 50 * time.Millisecond

// tick kinds.
const (
	tickStress    = 1
	tickRetryJoin = 2
)

// DefaultJoinRetry paces re-sent join queries while a node is trying to
// enter the session (queries are best-effort and may be dropped by full
// buffers or relay dead ends).
const DefaultJoinRetry = 500 * time.Millisecond

// StressUnit converts bytes/sec to the paper's stress denominator of
// 100 KBps, so reported stress matches Table 3's "1/100 KBps" units.
const StressUnit = 100 << 10

// Query is the sQuery payload.
type Query struct {
	App    uint32
	Joiner message.NodeID
	Hops   uint32
}

// Encode serializes the query.
func (q Query) Encode() []byte {
	return protocol.NewWriter(16).U32(q.App).ID(q.Joiner).U32(q.Hops).Bytes()
}

// DecodeQuery parses an sQuery payload.
func DecodeQuery(b []byte) (Query, error) {
	r := protocol.NewReader(b)
	q := Query{App: r.U32(), Joiner: r.ID(), Hops: r.U32()}
	return q, r.Err()
}

// Announce is the sAnnounce payload flooding the session source identity.
type Announce struct {
	App    uint32
	Source message.NodeID
}

// Encode serializes the announce.
func (a Announce) Encode() []byte {
	return protocol.NewWriter(12).U32(a.App).ID(a.Source).Bytes()
}

// DecodeAnnounce parses an sAnnounce payload.
func DecodeAnnounce(b []byte) (Announce, error) {
	r := protocol.NewReader(b)
	a := Announce{App: r.U32(), Source: r.ID()}
	return a, r.Err()
}

// StressMsg is the periodic stress exchange payload.
type StressMsg struct {
	App   uint32
	Value float64
}

// Encode serializes the stress report.
func (s StressMsg) Encode() []byte {
	return protocol.NewWriter(12).U32(s.App).F64(s.Value).Bytes()
}

// DecodeStress parses a stress payload.
func DecodeStress(b []byte) (StressMsg, error) {
	r := protocol.NewReader(b)
	s := StressMsg{App: r.U32(), Value: r.F64()}
	return s, r.Err()
}

// Tree is the tree-construction algorithm for one dissemination session.
type Tree struct {
	algorithm.Base

	// Variant selects the construction algorithm; required.
	Variant Variant
	// App is the session's application identifier; required.
	App uint32
	// LastMile is this node's last-mile available bandwidth in bytes per
	// second, the denominator of node stress; required for StressAware.
	LastMile int64
	// StressInterval overrides the stress exchange period.
	StressInterval time.Duration
	// AutoRejoin re-queries through known hosts when the parent fails.
	AutoRejoin bool

	mu             sync.Mutex
	wantJoin       bool
	retryArmed     bool
	isSource       bool
	inSession      bool
	everJoined     bool // a later attach is a reparent, not a first join
	parent         message.NodeID
	hasParent      bool
	children       []message.NodeID
	source         message.NodeID // learned from sAnnounce or sDeploy
	announced      bool
	neighborStress map[message.NodeID]float64
	received       atomic.Int64
	joinTime       atomic.Int64 // unix nanos when the ack arrived
}

var _ engine.Algorithm = (*Tree)(nil)

// Attach initializes state and schedules the stress exchange.
func (t *Tree) Attach(api engine.API) {
	t.Base.Attach(api)
	t.neighborStress = make(map[message.NodeID]float64)
	if t.StressInterval <= 0 {
		t.StressInterval = DefaultStressInterval
	}
	if t.Variant == StressAware {
		api.After(t.StressInterval, tickStress)
	}
}

// ----- observable state (safe from any goroutine) -----

// Parent reports the current parent, if any.
func (t *Tree) Parent() (message.NodeID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parent, t.hasParent
}

// Children lists current children.
func (t *Tree) Children() []message.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]message.NodeID, len(t.children))
	copy(out, t.children)
	return out
}

// Degree reports the node's degree in the dissemination topology.
func (t *Tree) Degree() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degreeLocked()
}

func (t *Tree) degreeLocked() int {
	d := len(t.children)
	if t.hasParent {
		d++
	}
	return d
}

// Stress reports the node's current stress in 1/100KBps units: degree
// divided by last-mile bandwidth.
func (t *Tree) Stress() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stressLocked()
}

func (t *Tree) stressLocked() float64 {
	if t.LastMile <= 0 {
		return float64(t.degreeLocked())
	}
	return float64(t.degreeLocked()) / (float64(t.LastMile) / StressUnit)
}

// InSession reports whether the node has joined the dissemination tree.
func (t *Tree) InSession() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inSession
}

// IsSource reports whether the node is the session source.
func (t *Tree) IsSource() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.isSource
}

// Source reports the session source as this node knows it — itself once
// deployed, otherwise what an announce taught it; zero before either.
func (t *Tree) Source() message.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.source
}

// ReceivedBytes reports application bytes received on this node.
func (t *Tree) ReceivedBytes() int64 { return t.received.Load() }

// JoinedAt reports when the join acknowledgment arrived (unix nanos), or
// zero.
func (t *Tree) JoinedAt() int64 { return t.joinTime.Load() }

// ----- message handling -----

// Process implements the algorithm.
func (t *Tree) Process(m *message.Msg) engine.Verdict {
	switch m.Type() {
	case protocol.TypeDeploy:
		t.onDeploy(m)
	case protocol.TypeJoin:
		t.onJoinCommand(m)
	case TypeQuery:
		t.onQuery(m)
	case TypeQueryAck:
		t.onQueryAck(m)
	case TypeAnnounce:
		t.onAnnounce(m)
	case TypeStress:
		t.onStress(m)
	case protocol.TypeTick:
		t.onTick(m)
	case protocol.TypeLinkDown:
		t.onLinkDown(m)
	case protocol.TypeBrokenSource:
		t.onBrokenSource(m)
	default:
		if m.IsData() {
			t.onData(m)
			return engine.Done
		}
		return t.Base.Process(m)
	}
	return engine.Done
}

func (t *Tree) onDeploy(m *message.Msg) {
	d, err := protocol.DecodeDeploy(m.Payload())
	if err != nil || d.App != t.App {
		return
	}
	self := t.API.ID()
	t.mu.Lock()
	t.isSource = true
	t.inSession = true
	t.source = self
	t.mu.Unlock()
	t.API.StartSource(d.App, d.Rate, int(d.MsgSize))
	// Flood the source identity so unicast joins can find it.
	t.floodAnnounce()
}

func (t *Tree) floodAnnounce() {
	t.mu.Lock()
	src := t.source
	t.announced = true
	t.mu.Unlock()
	payload := Announce{App: t.App, Source: src}.Encode()
	msg := t.API.NewControl(TypeAnnounce, t.App, payload)
	t.Disseminate(msg, t.Known.All(), 1.0)
}

func (t *Tree) onAnnounce(m *message.Msg) {
	a, err := DecodeAnnounce(m.Payload())
	if err != nil || a.App != t.App {
		return
	}
	t.mu.Lock()
	first := !t.announced
	t.announced = true
	if t.source.IsZero() {
		t.source = a.Source
	}
	t.mu.Unlock()
	if first {
		// Re-flood once so the announcement reaches the whole membership.
		payload := Announce{App: t.App, Source: a.Source}.Encode()
		t.Disseminate(t.API.NewControl(TypeAnnounce, t.App, payload), t.Known.All(), 1.0)
	}
}

// onJoinCommand handles the observer's join instruction.
func (t *Tree) onJoinCommand(m *message.Msg) {
	j, err := protocol.DecodeJoin(m.Payload())
	if err != nil || j.App != t.App {
		return
	}
	t.mu.Lock()
	already := t.inSession || t.isSource
	t.wantJoin = !already
	arm := !already && !t.retryArmed
	if arm {
		t.retryArmed = true
	}
	t.mu.Unlock()
	if already {
		return
	}
	t.sendQuery(j.Contact)
	if arm {
		t.API.After(DefaultJoinRetry, tickRetryJoin)
	}
}

// sendQuery launches (or relaunches) the join query.
func (t *Tree) sendQuery(contact message.NodeID) {
	if contact.IsZero() {
		t.mu.Lock()
		contact = t.source
		t.mu.Unlock()
	}
	if contact.IsZero() && t.Known.Len() > 0 {
		contact = t.Known.Random(1, t.Rng)[0]
	}
	if contact.IsZero() || contact == t.API.ID() {
		return
	}
	q := Query{App: t.App, Joiner: t.API.ID()}
	t.API.SendNew(t.API.NewControl(TypeQuery, t.App, q.Encode()), contact)
}

func (t *Tree) onQuery(m *message.Msg) {
	q, err := DecodeQuery(m.Payload())
	if err != nil || q.App != t.App || q.Joiner == t.API.ID() {
		return
	}
	t.mu.Lock()
	inTree := t.inSession || t.isSource
	t.mu.Unlock()

	if !inTree {
		// Not in the tree: relay toward one (the paper's utility
		// dissemination), preferring the announced source.
		if q.Hops >= queryTTL {
			return
		}
		q.Hops++
		t.mu.Lock()
		next := t.source
		t.mu.Unlock()
		if next.IsZero() {
			candidates := t.Known.All()
			for _, c := range t.Known.Random(len(candidates), t.Rng) {
				if c != q.Joiner && c != m.Sender() {
					next = c
					break
				}
			}
		}
		if !next.IsZero() {
			t.API.SendNew(t.API.NewControl(TypeQuery, t.App, q.Encode()), next)
		}
		return
	}

	switch t.Variant {
	case Random:
		t.accept(q.Joiner)
	case Unicast:
		t.mu.Lock()
		isSrc := t.isSource
		src := t.source
		parent := t.parent
		hasParent := t.hasParent
		t.mu.Unlock()
		switch {
		case isSrc:
			t.accept(q.Joiner)
		case !src.IsZero():
			t.forwardQuery(q, src)
		case hasParent:
			t.forwardQuery(q, parent)
		default:
			t.accept(q.Joiner) // isolated fallback
		}
	case StressAware:
		t.stressAwareQuery(q)
	default:
		t.accept(q.Joiner)
	}
}

func (t *Tree) forwardQuery(q Query, next message.NodeID) {
	if q.Hops >= queryTTL {
		t.accept(q.Joiner)
		return
	}
	q.Hops++
	t.API.SendNew(t.API.NewControl(TypeQuery, t.App, q.Encode()), next)
}

// stressAwareQuery implements the ns-aware forwarding rule: accept when
// this node has the minimum stress among itself, its parent and children;
// otherwise forward to the minimum-stress neighbor.
func (t *Tree) stressAwareQuery(q Query) {
	t.mu.Lock()
	self := t.stressLocked()
	best := self
	var bestPeer message.NodeID
	consider := func(peer message.NodeID) {
		s, ok := t.neighborStress[peer]
		if !ok {
			return // unknown stress: not a candidate
		}
		if s < best {
			best = s
			bestPeer = peer
		}
	}
	if t.hasParent {
		consider(t.parent)
	}
	for _, c := range t.children {
		if c != q.Joiner {
			consider(c)
		}
	}
	t.mu.Unlock()
	if bestPeer.IsZero() {
		t.accept(q.Joiner)
		return
	}
	t.forwardQuery(q, bestPeer)
}

// accept adopts the joiner as a child and acknowledges. A query from a
// node already listed is acknowledged again, without a second entry: a
// joiner asks only while it is out of the session, so either the first
// ack was lost or its state was reset after the ack arrived (a
// BrokenSource cascade processed late), and a silent acceptor would leave
// it re-querying forever while being fed. onQueryAck ignores the repeat
// if the joiner is in session after all.
func (t *Tree) accept(joiner message.NodeID) {
	t.mu.Lock()
	listed := false
	for _, c := range t.children {
		if c == joiner {
			listed = true
			break
		}
	}
	if !listed {
		t.children = append(t.children, joiner)
	}
	t.mu.Unlock()
	payload := Query{App: t.App, Joiner: joiner}.Encode()
	t.API.SendNew(t.API.NewControl(TypeQueryAck, t.App, payload), joiner)
}

func (t *Tree) onQueryAck(m *message.Msg) {
	q, err := DecodeQuery(m.Payload())
	if err != nil || q.App != t.App || q.Joiner != t.API.ID() {
		return
	}
	t.mu.Lock()
	if t.inSession {
		t.mu.Unlock()
		return // already joined elsewhere (first ack wins)
	}
	rejoining := t.everJoined
	t.everJoined = true
	t.parent = m.Sender()
	t.hasParent = true
	t.inSession = true
	t.mu.Unlock()
	if rejoining {
		// A repeat attach is a topology repair: record where the subtree
		// reparented so the observer timeline can line it up with the
		// failure that caused it.
		t.API.Note(trace.KindReparent, m.Sender(), t.App, 1)
	}
	t.joinTime.Store(time.Now().UnixNano())
}

func (t *Tree) onStress(m *message.Msg) {
	s, err := DecodeStress(m.Payload())
	if err != nil || s.App != t.App {
		return
	}
	t.mu.Lock()
	t.neighborStress[m.Sender()] = s.Value
	t.mu.Unlock()
}

func (t *Tree) onTick(m *message.Msg) {
	tk, err := protocol.DecodeTick(m.Payload())
	if err != nil {
		return
	}
	if tk.Kind == tickRetryJoin {
		t.mu.Lock()
		retry := t.wantJoin && !t.inSession && !t.isSource
		t.retryArmed = retry
		t.mu.Unlock()
		if retry {
			t.sendQuery(message.NodeID{})
			t.API.After(DefaultJoinRetry, tickRetryJoin)
		}
		return
	}
	if tk.Kind != tickStress {
		return
	}
	t.mu.Lock()
	peers := make([]message.NodeID, 0, len(t.children)+1)
	if t.hasParent {
		peers = append(peers, t.parent)
	}
	peers = append(peers, t.children...)
	value := t.stressLocked()
	t.mu.Unlock()
	if len(peers) > 0 {
		payload := StressMsg{App: t.App, Value: value}.Encode()
		t.API.SendNew(t.API.NewControl(TypeStress, t.App, payload), peers...)
	}
	t.API.After(t.StressInterval, tickStress)
}

func (t *Tree) onData(m *message.Msg) {
	t.received.Add(int64(m.Len()))
	t.mu.Lock()
	children := make([]message.NodeID, len(t.children))
	copy(children, t.children)
	t.mu.Unlock()
	for _, c := range children {
		t.API.Send(m, c)
	}
}

// onBrokenSource reacts to the engine's domino cascade: somewhere above
// this node the supply of the session broke, so the whole subtree is
// starved even though its own links are healthy. Dropping out of the
// session here matters for repair correctness, not just bookkeeping —
// a starved node that still believed it was in session would keep
// accepting joiners, and a rejoining ancestor that attached to its own
// starved descendant would form a cycle no later event untangles.
// Detaching the entire subtree (each member got the cascade) makes every
// member rejoin through nodes that actually reach the source.
func (t *Tree) onBrokenSource(m *message.Msg) {
	bs, err := protocol.DecodeBrokenSource(m.Payload())
	if err != nil || bs.App != t.App {
		return
	}
	t.mu.Lock()
	if t.isSource {
		t.mu.Unlock()
		return
	}
	t.parent = message.NodeID{}
	t.hasParent = false
	t.inSession = false
	rejoin := t.AutoRejoin
	arm := rejoin && !t.retryArmed
	if rejoin {
		t.wantJoin = true
		if arm {
			t.retryArmed = true
		}
	}
	t.mu.Unlock()
	if rejoin {
		t.sendQuery(message.NodeID{})
		if arm {
			t.API.After(DefaultJoinRetry, tickRetryJoin)
		}
	}
}

func (t *Tree) onLinkDown(m *message.Msg) {
	le, err := protocol.DecodeLinkEvent(m.Payload())
	if err != nil {
		return
	}
	t.mu.Lock()
	lostParent := t.hasParent && le.Peer == t.parent && le.Upstream
	if lostParent {
		t.hasParent = false
		t.inSession = t.isSource
		t.parent = message.NodeID{}
	}
	for i, c := range t.children {
		if c == le.Peer && !le.Upstream {
			t.children = append(t.children[:i], t.children[i+1:]...)
			break
		}
	}
	delete(t.neighborStress, le.Peer)
	rejoin := lostParent && t.AutoRejoin
	arm := rejoin && !t.retryArmed
	if rejoin {
		t.wantJoin = true
		if arm {
			t.retryArmed = true
		}
	}
	t.mu.Unlock()
	if rejoin {
		t.Known.Remove(le.Peer)
		t.sendQuery(message.NodeID{})
		if arm {
			t.API.After(DefaultJoinRetry, tickRetryJoin)
		}
	}
}
