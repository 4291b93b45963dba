package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/tree"
	"repro/internal/vnet"
)

// SessionApp is the application id of a Session's stream; a test that
// adds its own node to one needs it.
const SessionApp = treeApp

// A session's source streams sessionMsgSize-byte messages at
// sessionRate bytes/sec.
const (
	sessionRate    = 256 << 10
	sessionMsgSize = 1 << 10
)

// recoveryTimeout is how long an experiment waits for a session to heal
// unless its caller says otherwise.
const recoveryTimeout = 30 * time.Second

// stormLinger is how long a storm connection pins its handshake token.
const stormLinger = 300 * time.Millisecond

// SessionConfig is what the call sites of a live tree session set.
type SessionConfig struct {
	// N is the session size including the source (node 0).
	N int
	// NetOpts tune the virtual network.
	NetOpts []vnet.Option
	// Observers lists the observer tier in failover order, a full mesh
	// when it names more than one; empty means the one at ObserverID.
	Observers []message.NodeID
}

// Session is the live scenario behind the churn, overload, timeline and
// dial-storm experiments and the chaos soaks: node 0 streams to N-1
// receivers over a self-organizing Random tree with auto-rejoin, joined
// through explicit contacts so the tree has depth. It owns the scenario
// end to end — boot, faults, and the one convergence predicate every
// caller waits on (Steady) with its diagnostic (Stuck).
//
// The per-index slices are exported so a test can add faults the session
// does not know (restarts through another observer, partitions) as
// closures; all of it is driven from one goroutine.
type Session struct {
	*Cluster
	IDs []message.NodeID
	// Trees holds each index's current algorithm instance (a restart
	// replaces it).
	Trees []*tree.Tree
	Alive []bool
	// Reachable is false for nodes a partition cut off from the source;
	// like dead nodes they are not expected to receive.
	Reachable []bool

	cfg      SessionConfig
	index    map[message.NodeID]int // IDs inverted
	baseline []int64                // ReceivedBytes at the last Mark
}

// NewSession boots the observer tier and the nodes, deploys the source
// (deployTree: every node knows it before anyone joins), joins every
// receiver and waits until the session is steady.
func NewSession(cfg SessionConfig) (*Session, error) {
	c, err := NewCluster(false, cfg.NetOpts...)
	if err != nil {
		return nil, err
	}
	s := &Session{
		Cluster:   c,
		IDs:       make([]message.NodeID, cfg.N),
		Trees:     make([]*tree.Tree, cfg.N),
		Alive:     make([]bool, cfg.N),
		Reachable: make([]bool, cfg.N),
		cfg:       cfg,
		index:     make(map[message.NodeID]int, cfg.N),
		baseline:  make([]int64, cfg.N),
	}
	if len(cfg.Observers) == 0 {
		s.cfg.Observers = []message.NodeID{ObserverID}
	}
	for i := range s.IDs {
		s.IDs[i] = nodeID(i)
		s.index[s.IDs[i]] = i
		s.Reachable[i] = true
	}
	if err := s.boot(); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

func (s *Session) boot() error {
	n := s.cfg.N
	for k, id := range s.cfg.Observers {
		peers := make([]message.NodeID, 0, len(s.cfg.Observers)-1)
		for j, p := range s.cfg.Observers {
			if j != k {
				peers = append(peers, p)
			}
		}
		err := s.startObserver(observer.Config{
			ID:             id,
			BootstrapCount: n,
			Seed:           int64(k + 1),
			Peers:          peers,
			SyncInterval:   100 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("observer %d: %w", k, err)
		}
	}
	for i := range s.IDs {
		if err := s.StartNode(i); err != nil {
			return err
		}
	}
	if !s.Obs.WaitForNodes(n, 10*time.Second) {
		return fmt.Errorf("bootstrap incomplete (%d alive)", len(s.Obs.Alive()))
	}
	if err := s.deployTree(s.IDs[0], s.Trees, sessionRate, sessionMsgSize); err != nil {
		return err
	}
	// Join each node through contact (i-1)/2 rather than letting every
	// query land on the source: the Random variant accepts wherever the
	// query arrives, so explicit contacts shape a deep tree with real
	// interior nodes — without them the session degenerates into a star
	// and a failure burst only ever kills leaves.
	for i := 1; i < n; i++ {
		s.Obs.Join(s.IDs[i], treeApp, s.IDs[(i-1)/2])
		if err := waitJoin(s.Trees[i], 10*time.Second); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	s.Mark()
	return s.AwaitSteady(15 * time.Second)
}

// StartNode boots (or, after a Kill, reboots) node i with a fresh
// algorithm instance. A rebooted node is outside the session until an
// observer is told to join it.
func (s *Session) StartNode(i int) error {
	alg := &tree.Tree{
		Variant:    tree.Random,
		App:        treeApp,
		LastMile:   1 << 20,
		AutoRejoin: true,
	}
	_, err := s.AddNode(s.IDs[i], alg, func(conf *engine.Config) {
		conf.Observers = s.cfg.Observers
		conf.StatusInterval = 50 * time.Millisecond
		conf.InactivityTimeout = 600 * time.Millisecond
		conf.RetryBase = 50 * time.Millisecond
	})
	if err != nil {
		return err
	}
	s.Trees[i], s.Alive[i] = alg, true
	return nil
}

// Engine returns node i's current engine.
func (s *Session) Engine(i int) *engine.Engine { return s.Engines[s.IDs[i]] }

// expected reports whether node i should be in the tree and receiving.
func (s *Session) expected(i int) bool { return s.Alive[i] && s.Reachable[i] }

// Mark snapshots every receiver's delivery count; Steady measures
// progress against it.
func (s *Session) Mark() {
	for i := 1; i < len(s.IDs); i++ {
		s.baseline[i] = s.Trees[i].ReceivedBytes()
	}
}

// Steady is the convergence predicate: every receiver that is alive and
// on the source's side of any partition is in the tree and has received
// bytes since the last Mark.
func (s *Session) Steady() bool {
	for i := 1; i < len(s.IDs); i++ {
		if s.expected(i) && (!s.Trees[i].InSession() || s.Trees[i].ReceivedBytes() <= s.baseline[i]) {
			return false
		}
	}
	return true
}

// AwaitSteady polls Steady until it holds; on timeout the error names the
// nodes in the way and why.
func (s *Session) AwaitSteady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !s.Steady() {
		if time.Now().After(deadline) {
			return fmt.Errorf("session not steady after %s:\n%s", timeout, strings.TrimSuffix(s.Stuck(), "\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// listedBy reports, per node index, which expected nodes list it as a
// child.
func (s *Session) listedBy() [][]int {
	by := make([][]int, len(s.IDs))
	for p := range s.IDs {
		if !s.expected(p) {
			continue
		}
		for _, c := range s.Trees[p].Children() {
			if i, ok := s.index[c]; ok {
				by[i] = append(by[i], p)
			}
		}
	}
	return by
}

// Stuck names every expected receiver that is not legally in the tree,
// one line each, and says why. The first two reasons are what Steady
// asserts; the other two are the stricter structural check Steady does
// not make: exactly one live node lists the receiver as a child, and it
// is the one the receiver calls its parent.
func (s *Session) Stuck() string {
	by := s.listedBy()
	var b strings.Builder
	for i := 1; i < len(s.IDs); i++ {
		if !s.expected(i) {
			continue
		}
		var why []string
		if !s.Trees[i].InSession() {
			why = append(why, "not in session")
		}
		if s.Trees[i].ReceivedBytes() <= s.baseline[i] {
			why = append(why, "no bytes since mark")
		}
		parent, has := s.Trees[i].Parent()
		switch {
		case len(by[i]) == 0:
			why = append(why, "no live node lists it as a child")
		case len(by[i]) > 1:
			why = append(why, fmt.Sprintf("listed as a child by %d live nodes %v", len(by[i]), by[i]))
		case !has:
			why = append(why, fmt.Sprintf("listed as a child by node %d but has no parent", by[i][0]))
		case parent != s.IDs[by[i][0]]:
			why = append(why, fmt.Sprintf("listed as a child by node %d but its parent is %s", by[i][0], parent))
		}
		if len(why) > 0 {
			fmt.Fprintf(&b, "  node %d (%s): %s\n", i, s.IDs[i], strings.Join(why, "; "))
		}
	}
	return b.String()
}

// FedTwice counts the expected receivers that more than one live node
// lists as a child: each of them is sent every byte once per lister.
func (s *Session) FedTwice() int {
	n := 0
	for i, by := range s.listedBy() {
		if i > 0 && s.expected(i) && len(by) > 1 {
			n++
		}
	}
	return n
}

// Interior lists the live non-leaf receivers, widest fan-out first:
// killing a leaf exercises nothing, killing a fan-out node orphans a
// subtree.
func (s *Session) Interior() []int {
	fanout := make([]int, len(s.IDs))
	var out []int
	for i := 1; i < len(s.IDs); i++ {
		if fanout[i] = len(s.Trees[i].Children()); fanout[i] > 0 && s.Alive[i] {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return fanout[out[a]] > fanout[out[b]] })
	return out
}

// Kill crashes node i: all its sockets die at once, no goodbye.
func (s *Session) Kill(i int) {
	s.Alive[i] = false
	s.Net.CrashNode(s.IDs[i].Addr())
	s.Engine(i).Stop()
}

// Saturate throttles node i's uplink to rate bytes/sec (0 restores full
// bandwidth), so the session's own stream overloads it.
func (s *Session) Saturate(i int, rate int64) {
	if s.Alive[i] {
		s.Engine(i).SetBandwidthLocal(protocol.SetBandwidth{Class: protocol.BandwidthUp, Rate: rate})
	}
}

// KillInterior crashes the k widest interior nodes at once, waits for the
// tree to repair itself and reports what the burst cost.
func (s *Session) KillInterior(k int, timeout time.Duration) Fig9ChurnPoint {
	victims := s.Interior()
	p := Fig9ChurnPoint{Interior: len(victims)}
	victims = victims[:min(k, len(victims))]
	p.Failures, p.Orphaned = len(victims), s.orphanedBy(victims)
	r := &chaos.Runner{Ops: s.Ops(), RecoveryTimeout: timeout}
	res := r.Run([]chaos.Event{{Kind: chaos.Kill, Nodes: victims}}).Results[0]
	p.Recovery, p.Recovered, p.BytesLost = res.Recovery, res.Recovered, res.DroppedDelta
	p.FedTwice = s.FedTwice()
	if !p.Recovered {
		p.stuck = s.Stuck()
	}
	return p
}

// healState is the renderers' word for a recovery outcome; a TIMEOUT row
// is followed by the Stuck lines.
func healState(recovered bool) string {
	if recovered {
		return "recovered"
	}
	return "TIMEOUT"
}

// orphanedBy walks each survivor's parent chain and reports how many pass
// through a victim (and so must re-attach for delivery to resume).
func (s *Session) orphanedBy(victims []int) int {
	dead := make([]bool, len(s.IDs))
	for _, v := range victims {
		dead[v] = true
	}
	orphaned := 0
	for i := 1; i < len(s.IDs); i++ {
		for at, hops := i, 0; !dead[i] && hops < len(s.IDs); hops++ {
			p, ok := s.Trees[at].Parent()
			if !ok {
				break
			}
			if at = s.index[p]; dead[at] {
				orphaned++
				break
			}
		}
	}
	return orphaned
}

// DialStorm floods each target's listener with half-open connections —
// rate dials/sec per target for d — from a mix of unique spoofed hosts
// (exercising the handshake-token cap) and one repeat-offender host
// (exercising per-source rate limiting and the greylist). No connection
// ever sends a hello: each pins its handshake token for stormLinger, then
// hangs up without a goodbye. It returns once the last one has, with the
// number of dials attempted and the receivers' aggregate delivery rate in
// bytes/sec over the storm's own wall time, before the stragglers drain.
func (s *Session) DialStorm(nodes []int, rate int64, d time.Duration) (dials int64, delivered float64) {
	interval := time.Second / time.Duration(rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	var wg sync.WaitGroup
	start, before := time.Now(), s.ReceivedTotal()
	for ; time.Since(start) < d; time.Sleep(interval) {
		for _, idx := range nodes {
			dials++
			src := fmt.Sprintf("10.99.%d.%d:%d", dials/250%250, dials%250+1, 40000+dials%20000)
			if dials%4 == 0 { // repeat offender: same host, fresh port
				src = fmt.Sprintf("10.99.250.250:%d", 40000+dials)
			}
			wg.Add(1)
			go func(src, dst string) {
				defer wg.Done()
				conn, err := s.Net.DialFrom(src, dst)
				if err != nil {
					return // backlog overflow: the storm sheds itself
				}
				time.Sleep(stormLinger)
				conn.Close()
			}(src, s.IDs[idx].Addr())
		}
	}
	delivered = float64(s.ReceivedTotal()-before) / time.Since(start).Seconds()
	wg.Wait()
	return dials, delivered
}

// ReceivedTotal sums the receivers' delivered application bytes.
func (s *Session) ReceivedTotal() int64 {
	var total int64
	for _, t := range s.Trees[1:] {
		total += t.ReceivedBytes()
	}
	return total
}

// Dropped sums bytes lost to failures over every engine ever started, so
// a killed or replaced engine's losses stay counted.
func (s *Session) Dropped() int64 {
	var total int64
	for _, e := range s.started {
		total += e.Counters().BytesDropped
	}
	return total
}

// Ops adapts the session to the chaos runner: the faults it can apply
// itself and its predicate. Faults only a soak needs (restart, partition,
// flaky links, observer kills) are added by that soak.
func (s *Session) Ops() chaos.Ops {
	return chaos.Ops{
		Kill:     s.Kill,
		Saturate: s.Saturate,
		DialStorm: func(nodes []int, rate int64, d time.Duration) {
			s.DialStorm(nodes, rate, d)
		},
		Mark:      func(chaos.Event) { s.Mark() },
		Recovered: s.Steady,
		Dropped:   s.Dropped,
	}
}
