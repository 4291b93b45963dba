// Package observer implements iOverlay's centralized monitoring facility:
// bootstrap support (answering boot requests with a random subset of
// alive nodes), periodic status requests, a control panel (deploying
// applications, join/leave, node termination, runtime bandwidth
// emulation, algorithm-specific commands), and a central trace log.
//
// The original observer is a Windows GUI; this one is headless and exposes
// the same information programmatically (and as text topology dumps),
// which is what every experiment in the paper actually consumes.
package observer

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Defaults.
const (
	DefaultBootstrapCount  = 8
	DefaultRequestInterval = 500 * time.Millisecond
	DefaultSyncInterval    = 200 * time.Millisecond
)

// staleAfter marks nodes dead after silence for this long.
const staleAfter = 5 * time.Second

// TraceRecord is one centrally logged trace message.
type TraceRecord struct {
	When time.Time
	Node message.NodeID
	Body string
}

// Config parameterizes an Observer.
type Config struct {
	// ID is the observer's identity/listen address.
	ID message.NodeID
	// Transport supplies connectivity.
	Transport engine.Transport
	// BootstrapCount is how many alive nodes a boot reply includes.
	BootstrapCount int
	// RequestInterval paces automatic status requests to all alive nodes;
	// zero uses the default, negative disables automatic requests.
	RequestInterval time.Duration
	// TraceWriter, when set, receives trace records as text lines.
	TraceWriter io.Writer
	// Seed fixes the bootstrap sampling for reproducible experiments.
	Seed int64
	// Peers lists the other observers of a federated deployment. The
	// observer dials a trunk to each peer (and accepts theirs) over the
	// same hello machinery proxies use, and runs anti-entropy sync of its
	// registration table across the trunks, so a node may register with
	// any federation member and bootstrap sets are served from the merged
	// view. The federation assumes a full mesh: every observer lists
	// every other.
	Peers []message.NodeID
	// SyncInterval paces anti-entropy rounds to federation peers; zero
	// uses the default, negative disables proactive sync (inbound syncs
	// are still absorbed).
	SyncInterval time.Duration
	// Admission tunes the registration port's admission gate, the same
	// knobs as an engine's: the cap on in-flight handshakes (accepted but
	// not yet identified by a hello; negative disables the gate), the
	// per-source rate and burst, and the greylist. Zeros select the
	// admission package defaults. The observer is every node's
	// registration point, so a connection storm lands here first — the
	// gate keeps the hello readers bounded while registered links and
	// federation trunks stay untouched.
	Admission admission.Config
}

// route is an outbound path for commands to one node, or — for a
// federation trunk — to a peer observer. Everything that goes out goes
// through link.Send, which never blocks: a command or sync round a full
// link refuses is dropped, and the next one repairs the view.
type route struct {
	link      *engine.Link
	proxy     bool // wrap commands in a Relay envelope
	peerTrunk bool // a federation trunk to another observer
}

// linkCap bounds every control link's outbound ring, in messages.
const linkCap = 256

// maxNodeEvents bounds the flight-recorder events retained per node; the
// oldest half is discarded when the series overflows.
const maxNodeEvents = 8192

// nodeState tracks one overlay node.
type nodeState struct {
	id         message.NodeID
	out        *route
	lastSeen   time.Time
	lastReport protocol.Report
	hasReport  bool
	departed   bool // deregistered gracefully, as opposed to failed
	// Federation state. seq versions the membership entry: the home
	// observer bumps it on material changes (register, route loss,
	// departure) and peers adopt whichever version is highest, so the
	// merged view converges without per-message traffic. home names the
	// observer holding the node's direct route; remoteAlive mirrors that
	// observer's liveness claim for nodes homed elsewhere.
	seq         uint64
	home        message.NodeID
	remoteAlive bool
	// events accumulates the flight-recorder tails shipped with each
	// report, deduplicated by sequence number (a re-requested report can
	// carry overlap); lastEventSeq is the newest sequence retained.
	events       []trace.Event
	lastEventSeq uint64
}

// Observer is the centralized monitoring and control server — or, with
// Config.Peers set, one member of a federated observer tier.
type Observer struct {
	cfg      Config
	door     *admission.Door // the registration port's front door
	rng      *rand.Rand
	rec      *trace.Recorder // the observer's own flight recorder
	counters metrics.Counters

	mu      sync.Mutex
	nodes   map[message.NodeID]*nodeState
	peers   map[message.NodeID]*route // live federation trunks, by peer
	links   map[*engine.Link]struct{} // every live link, so Stop can retire them
	closing bool
	traces  []TraceRecord
	fed     FederationStats

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New constructs an observer.
func New(cfg Config) (*Observer, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("observer: Config.Transport is required")
	}
	if cfg.ID.IsZero() {
		return nil, fmt.Errorf("observer: Config.ID is required")
	}
	if cfg.BootstrapCount <= 0 {
		cfg.BootstrapCount = DefaultBootstrapCount
	}
	if cfg.RequestInterval == 0 {
		cfg.RequestInterval = DefaultRequestInterval
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}
	peers := cfg.Peers[:0:0]
	for _, p := range cfg.Peers {
		if !p.IsZero() && p != cfg.ID {
			peers = append(peers, p)
		}
	}
	cfg.Peers = peers
	o := &Observer{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		rec:   trace.New(1024),
		nodes: make(map[message.NodeID]*nodeState),
		peers: make(map[message.NodeID]*route),
		links: make(map[*engine.Link]struct{}),
		done:  make(chan struct{}),
	}
	// Federation peers bypass the gate: a connection storm of joining
	// nodes must not cut the observer tier apart.
	o.door = &admission.Door{
		Gate: admission.New(cfg.Admission), Bypass: o.isPeerHost, ID: cfg.ID,
		Counters: &o.counters, Rec: o.rec, Done: o.done, WG: &o.wg,
	}
	return o, nil
}

// Admission reports the admission gate's counters.
func (o *Observer) Admission() admission.Stats { return o.door.Gate.Stats() }

// Counters reports the observer's connection-handling counters.
func (o *Observer) Counters() metrics.CountersSnapshot { return o.counters.Snapshot() }

// ID reports the observer identity.
func (o *Observer) ID() message.NodeID { return o.cfg.ID }

// Start binds the observer port and begins serving.
func (o *Observer) Start() error {
	l, err := o.cfg.Transport.Listen(o.cfg.ID.Addr())
	if err != nil {
		return fmt.Errorf("observer: listen: %w", err)
	}
	o.wg.Add(1)
	go o.door.AcceptLoop(l, o.serveConn)
	if o.cfg.RequestInterval > 0 {
		o.wg.Add(1)
		go o.requestLoop()
	}
	for _, p := range o.cfg.Peers {
		o.wg.Add(1)
		go o.peerDialLoop(p)
	}
	if o.cfg.SyncInterval > 0 && len(o.cfg.Peers) > 0 {
		o.wg.Add(1)
		go o.syncLoop()
	}
	return nil
}

// Stop shuts the observer down.
func (o *Observer) Stop() {
	o.once.Do(func() {
		close(o.done)
		o.door.Close()
		o.mu.Lock()
		o.closing = true
		// Closing a link closes its conn, which unblocks the reader even
		// when the far side is still alive — with federation the remote
		// observer outlives us, so waiting for it to hang up would
		// deadlock Stop.
		for l := range o.links {
			l.Close()
		}
		o.mu.Unlock()
		o.wg.Wait()
	})
}

// newRoute wraps an identified connection in a link and registers it for
// Stop-time teardown; it reports nil (with the connection closed) when the
// observer is already stopping. The caller untracks the route when its
// read loop ends.
func (o *Observer) newRoute(conn net.Conn, kind uint32) *route {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing {
		_ = conn.Close()
		return nil
	}
	out := &route{
		link:      engine.NewLink(conn, linkCap, &o.wg),
		proxy:     kind == protocol.HelloProxy,
		peerTrunk: kind == protocol.HelloObserver,
	}
	o.links[out.link] = struct{}{}
	return out
}

// untrack retires a route whose read loop ended.
func (o *Observer) untrack(out *route) {
	out.link.Close()
	o.mu.Lock()
	delete(o.links, out.link)
	o.mu.Unlock()
}

// isPeerHost reports whether host names a configured federation peer.
func (o *Observer) isPeerHost(host string) bool {
	for _, p := range o.cfg.Peers {
		if h, _, err := net.SplitHostPort(p.Addr()); err == nil && h == host {
			return true
		}
	}
	return false
}

// serveConn takes over a connection the door admitted and identified: a
// node's observer link, a proxy's trunk, or a peer observer's federation
// trunk — the hello's App field says which. The admission token is
// released as soon as the link is registered: it covers the handshake,
// not the link's lifetime.
func (o *Observer) serveConn(conn net.Conn, peer message.NodeID, app uint32, release func()) {
	o.rec.Emit(trace.KindAccept, peer, app, int64(admission.Admitted))
	out := o.newRoute(conn, app)
	if out == nil {
		return
	}
	defer o.untrack(out)
	if out.peerTrunk {
		release()
		o.runPeerTrunk(out, peer)
		return
	}
	if !out.proxy {
		o.register(peer, out) // a proxy trunk is registered per relayed node
	}
	release()
	for {
		m, err := out.link.Read()
		if err != nil {
			// Everything reached over this connection is now unreachable:
			// the direct peer, and — on a proxy trunk — every node whose
			// reports were relayed across it. Leaving relayed nodes routed
			// at the dead trunk would keep them in the bootstrap set (and
			// command-reachable) forever.
			o.markRouteGone(out)
			return
		}
		o.handle(m, out)
	}
}

// handle processes one message from a node (possibly relayed by a proxy).
func (o *Observer) handle(m *message.Msg, out *route) {
	defer m.Release()
	from := m.Sender()
	o.register(from, out)
	switch m.Type() {
	case protocol.TypeBoot:
		reply := protocol.BootReply{Hosts: o.bootstrapSet(from)}
		o.sendRoute(out, from,
			message.New(protocol.TypeBootReply, o.cfg.ID, 0, 0, reply.Encode()))
	case protocol.TypeReport:
		rp, err := protocol.DecodeReport(m.Payload())
		if err != nil {
			return
		}
		o.mu.Lock()
		if n, ok := o.nodes[from]; ok {
			n.lastReport = rp
			n.hasReport = true
			n.absorbEvents(rp.Events)
		}
		o.mu.Unlock()
		// Federate the raw report so peers' timeline/histogram/topology
		// aggregation sees every node, not just the ones homed with them.
		o.fanoutReport(m)
	case protocol.TypeDepart:
		// Graceful deregistration — the paper's departure, distinct from
		// a crash: the node is removed from the bootstrap set immediately
		// instead of lingering until its silence goes stale, and the
		// departed mark tells monitoring this was intentional.
		o.mu.Lock()
		if n, ok := o.nodes[from]; ok {
			n.out = nil
			n.departed = true
			n.home = o.cfg.ID
			n.seq++ // version the departure for the federation
		}
		o.mu.Unlock()
	case protocol.TypeTrace:
		rec := TraceRecord{When: time.Now(), Node: from, Body: string(m.Payload())}
		o.mu.Lock()
		o.traces = append(o.traces, rec)
		o.mu.Unlock()
		if o.cfg.TraceWriter != nil {
			fmt.Fprintf(o.cfg.TraceWriter, "%s %s %s\n",
				rec.When.Format(time.RFC3339Nano), rec.Node, rec.Body)
		}
	}
}

// register records (or refreshes) a node and its outbound route. A
// material change — new route, rejoin after departure, or a node adopted
// from a peer observer — bumps the entry's federation version; refreshes
// over the unchanged route do not, so steady-state traffic produces no
// sync churn.
func (o *Observer) register(id message.NodeID, out *route) {
	if id.IsZero() || id == o.cfg.ID || o.isPeerID(id) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[id]
	if !ok {
		n = &nodeState{id: id}
		o.nodes[id] = n
	}
	if n.out != out || n.home != o.cfg.ID || n.departed {
		n.seq++
		if old := n.out; old != nil && old != out && !old.proxy && !old.peerTrunk {
			// The node re-registered over a fresh direct connection (an
			// engine failover retries idempotently); the superseded
			// link would otherwise leak until process exit. Proxy trunks
			// are shared by their relayed nodes and must survive one
			// node's re-register.
			old.link.Close()
		}
	}
	n.out = out
	n.home = o.cfg.ID
	n.remoteAlive = false
	n.lastSeen = time.Now()
	n.departed = false // a node heard from again has (re)joined
}

// markRouteGone clears the outbound route of every node last reached over
// the dropped connection — identified by route pointer, so a trunk failure
// orphans its relayed nodes exactly like the direct peer.
func (o *Observer) markRouteGone(out *route) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.nodes {
		if n.out == out {
			n.out = nil
			if n.home == o.cfg.ID {
				n.seq++ // version the loss so peers drop the node too
			}
		}
	}
}

// bootstrapSet samples up to BootstrapCount alive nodes, excluding the
// requester — the paper's "random subset of existing nodes that are
// alive". The candidates are sorted before shuffling so a fixed Seed
// reproduces the same samples regardless of map iteration order, and the
// shuffle is unconditional: even when the whole overlay fits in one reply,
// the order must vary, or every joiner in a small overlay contacts the
// same first host and early experiments always build the same topology.
func (o *Observer) bootstrapSet(exclude message.NodeID) []message.NodeID {
	cutoff := time.Now().Add(-staleAfter)
	o.mu.Lock()
	defer o.mu.Unlock()
	alive := make([]message.NodeID, 0, len(o.nodes))
	for id, n := range o.nodes {
		if id == exclude {
			continue
		}
		// Merged federation view: a live direct route, or a fresh
		// liveness claim synced from the node's home observer.
		if n.out != nil || o.remoteAliveLocked(n, cutoff) {
			alive = append(alive, id)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].Less(alive[j]) })
	o.rng.Shuffle(len(alive), func(i, j int) {
		alive[i], alive[j] = alive[j], alive[i]
	})
	if len(alive) > o.cfg.BootstrapCount {
		alive = alive[:o.cfg.BootstrapCount]
	}
	return alive
}

// sendRoute pushes a command toward a node over its route, wrapping in a
// relay envelope when the route is a proxy trunk. It consumes m.
func (o *Observer) sendRoute(out *route, dest message.NodeID, m *message.Msg) {
	if out == nil {
		m.Release()
		return
	}
	if out.proxy || out.peerTrunk {
		var buf []byte
		buf = m.AppendHeader(buf)
		buf = append(buf, m.Payload()...)
		m.Release()
		m = message.New(protocol.TypeRelay, o.cfg.ID, 0, 0,
			protocol.Relay{Dest: dest, Inner: buf}.Encode())
	}
	if !out.link.Send(m) {
		m.Release()
	}
}

// requestLoop periodically asks every alive node homed at this observer
// for a status update. Federated deployments leave remote nodes to their
// home observer's requester — the reports spread through report fanout —
// so a node is never double-polled by every federation member.
func (o *Observer) requestLoop() {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.RequestInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			for _, id := range o.aliveLocal() {
				o.Command(id, protocol.TypeRequest, nil)
			}
		case <-o.done:
			return
		}
	}
}
