// Package engine implements the iOverlay message switching engine — the
// paper's primary contribution. Each overlay node runs one Engine: an
// application-layer message switch with a goroutine per incoming and per
// outgoing connection, plus a single engine goroutine that multiplexes
// control messages and switches data messages through the
// application-specific Algorithm in weighted fair order (stride
// scheduling over the dynamically tunable per-receiver weights).
//
// The design mirrors the paper's Table 1 skeleton: the engine goroutine
// waits for control messages on the publicized port (here: an inbox fed
// by connection readers), consults Engine.process or Algorithm.Process,
// then switches data messages from receiver buffers to sender buffers.
// Algorithms run one Process call at a time, under the engine's turn token
// (Engine.turnMu), and never need thread-safe data structures: the engine
// goroutine holds the token for every turn it runs, a receiver goroutine
// whose batch has nothing to queue behind may take it to switch that batch
// itself, and a new link's handshake to run the link's LinkUp, instead of
// waking the engine goroutine.
package engine

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/bandwidth"
	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/queue"
	"repro/internal/trace"
)

// Defaults applied by New when Config leaves fields zero.
const (
	DefaultRecvBuf        = 64
	DefaultSendBuf        = 64
	DefaultStatusInterval = 500 * time.Millisecond
	DefaultBatchSize      = 32
	DefaultRetryBase      = 100 * time.Millisecond
	// DefaultEventLog sizes every node's flight recorder: a ring of the
	// most recent structured engine events, allocated a chunk at a time as
	// the events first reach it.
	DefaultEventLog = 1024
)

// sharedPool is the process's one message and receive-segment pool: every
// Engine draws from it and releases into it. The engines of one process
// (an experiment, a benchmark, a test) pass buffers along hop by hop, so
// a segment or message one engine releases is the next one another engine
// reads into, and a fresh engine starts on the buffers that engines
// before it gave back instead of allocating its own.
var sharedPool = message.NewPool()

// parkedPerSendSlot sizes the parked backlog — what full sender rings
// refused, held in the links' queues until they drain — at four sender
// rings' worth: the switch stops draining receivers once that many
// messages are parked.
// departureGrace bounds how long Depart waits for queued outgoing
// messages to drain before the node shuts down.
const (
	parkedPerSendSlot = 4
	departureGrace    = 2 * time.Second
)

// linkTiming bounds link set-up. Handshake bounds each step — an outgoing
// transport dial, the hello a new inbound connection must identify itself
// with, the dialer's wait for the acceptor's Welcome or Busy reply.
// DialAttempts is how many times a sender tries to reach a peer before
// the link is declared down, and RetryMax caps the backoff between sender
// redials and between observer reconnects. Every engine runs
// fixedTiming; tests shorten it through export_test.go.
type linkTiming struct {
	Handshake    time.Duration
	DialAttempts int
	RetryMax     time.Duration
}

var fixedTiming = linkTiming{
	Handshake:    admission.DefaultHelloTimeout,
	DialAttempts: 3,
	RetryMax:     5 * time.Second,
}

// Config parameterizes an Engine.
type Config struct {
	// ID is the node's identity; its Addr is the publicized listen
	// address.
	ID message.NodeID
	// Transport supplies connectivity (TCP or vnet).
	Transport Transport
	// Algorithm is the application-specific protocol; required.
	Algorithm Algorithm
	// Observers, when set, lists the observers (or proxies) to register
	// with for bootstrap and monitoring: the engine dials the first entry
	// at start-up and rotates to the next (wrapping) whenever the current
	// link dies, re-registering idempotently under the same NodeID. One
	// entry is the classic single-observer deployment.
	Observers []message.NodeID
	// RecvBuf and SendBuf size the circular buffers in messages — the
	// paper's per-node buffer capacity (5 for the back-pressure
	// experiments, 10000 for the large-buffer ones). The parked backlog
	// is sized from SendBuf: four sender rings' worth.
	RecvBuf int
	SendBuf int
	// TotalBW, UpBW, DownBW set the emulated per-node bandwidth in bytes
	// per second (0 = unlimited), adjustable later via SetBandwidth, which
	// also caps single links.
	TotalBW, UpBW, DownBW int64
	// StatusInterval paces periodic QoS reports to the algorithm.
	StatusInterval time.Duration
	// InactivityTimeout, when nonzero, declares an upstream link failed
	// after that long without traffic (the paper's passive inactivity
	// detection; no heartbeats are ever sent).
	InactivityTimeout time.Duration
	// BatchSize bounds how many message references move per ring operation
	// across the data path: the receiver's decoded-message push, the
	// switch's per-quantum drain, the sender's buffer drain, and unlimited
	// local sources. Batches never exceed the ring's capacity or the
	// parked-backlog headroom, so a full ring still blocks the receiver
	// and back-pressure semantics are unchanged. 1 disables batching.
	BatchSize int
	// Admission tunes the publicized port's admission gate: the in-flight
	// handshake cap (negative disables the gate), the per-source rate and
	// burst, and the greylist. Zeros select the admission package
	// defaults.
	Admission admission.Config
	// RetryBase is the first delay of the capped exponential backoff
	// (with jitter) that paces sender redials and observer reconnects.
	RetryBase time.Duration
	// DatagramData, when true, moves the node's data lane onto the
	// transport's datagram endpoint (UDP on the real network, the vnet
	// packet endpoints in tests): outgoing data messages are framed into
	// datagrams toward each admitted peer, while the hello handshake,
	// Busy refusals and every control-class message stay on the reliable
	// stream lane. Loss, duplication and reordering are then the
	// application algorithm's contract. Requires a Transport that also
	// implements PacketTransport.
	DatagramData bool
	// DatagramMTU bounds each outgoing datagram in bytes, frame header
	// included. Messages needing more than message.MaxFragments datagrams
	// at this MTU are refused to the sender with a counted error. Zero
	// selects message.DefaultDgramMTU; values below message.MinDgramMTU
	// are rejected.
	DatagramMTU int
}

func (c *Config) applyDefaults() {
	if c.RecvBuf <= 0 {
		c.RecvBuf = DefaultRecvBuf
	}
	if c.SendBuf <= 0 {
		c.SendBuf = DefaultSendBuf
	}
	if c.StatusInterval <= 0 {
		c.StatusInterval = DefaultStatusInterval
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.DatagramMTU == 0 {
		c.DatagramMTU = message.DefaultDgramMTU
	}
}

// ctrlMsg pairs a control message with the link peer it arrived from
// (which may differ from the original sender for relayed messages).
type ctrlMsg struct {
	m    *message.Msg
	from message.NodeID
}

// Engine is one iOverlay node.
type Engine struct {
	cfg    Config
	timing linkTiming
	id     message.NodeID
	addr   string // id rendered as a dial/listen address, once
	alg    Algorithm
	// budget is the node's emulated bandwidth; down composes its incoming
	// half, the one shaper every receiver reads through.
	budget   *bandwidth.NodeBudget
	down     bandwidth.Shaper
	counters metrics.Counters

	// door is the front door of the publicized port: accept, admission
	// gate, hello read. Its Gate is the connection-storm admission
	// controller, also consulted for stray datagrams; nil (admit
	// everything) when Config.Admission.MaxHandshakes is negative.
	door *admission.Door
	// maxParked bounds the parked backlog: parkedPerSendSlot·SendBuf.
	maxParked int64
	// pconn is the bound datagram endpoint when Config.DatagramData is
	// set; senders share it for writes (packet writes are concurrency
	// safe) and one reader goroutine drains it. dgramSeq numbers outgoing
	// messages for fragment reassembly at the peers.
	pconn    net.PacketConn
	dgramSeq atomic.Uint32

	// hello is the node's handshake frame, a bare header that differs per
	// engine only in the sender identity: rendered once here so no link
	// set-up builds a message for it.
	hello []byte

	mu        sync.Mutex
	receivers map[message.NodeID]*receiver
	// recvGen counts changes to the receivers map; bumped under mu, read
	// without it by the switch to validate its cached receiver list.
	recvGen   atomic.Uint64
	senders   map[message.NodeID]*sender
	linkRates map[message.NodeID]int64 // pending per-link caps
	stopping  bool
	departing bool // Depart in progress: no observer reconnects

	// buffered gauges the wire bytes of every message reference this node
	// holds: in a ring, parked, or popped and not yet disposed of. A
	// reference is charged once where it enters — ingest or the datagram
	// reader for arrivals, deliverOut for what the algorithm sends — and
	// credited once where it is disposed of.
	buffered metrics.Gauge

	// rec is the flight recorder, DefaultEventLog events deep. Safe from
	// any goroutine.
	rec *trace.Recorder

	// turnMu is the turn token: whoever holds it runs the engine's turn —
	// a control message, an event, a switch pass, the periodic report, and
	// the flushOut that ends each — and is the only caller of
	// Algorithm.Process and the only toucher of the token-holder-only state
	// below. The engine goroutine takes it for every turn and gives it up
	// only while it waits; a stream receiver or the packet reader may
	// TryLock it for one quantum (switchInline), a new link's handshake for
	// the link's LinkUp turn (linkUp), and neither ever waits for it or
	// while holding it. Lock order: turnMu, then mu, then a ring or pipe
	// lock.
	turnMu sync.Mutex
	// waiting counts the control messages and events handed to the engine
	// goroutine and not yet run. Neither a receiver's quantum nor a
	// handshake's LinkUp runs past them: the inbox's length would miss the
	// one the engine goroutine has popped and is about to run.
	waiting atomic.Int32
	// inbox queues those turns for the engine goroutine.
	inbox inbox

	// work wakes the engine goroutine for a switch pass. Buffered one deep:
	// a pending signal absorbs every later one until the pass runs.
	work chan struct{}
	// parked counts the messages the links' queues held at the last
	// flushOut — the parked backlog, what full sender rings refused.
	// Written by the token holder, read by anyone.
	parked atomic.Int64
	// How much traffic takes each road, in messages: switchedInline were
	// switched by the receiver that decoded them (switchInline),
	// switchedViaRing by a switch pass from a receiver or local-source ring;
	// writtenInline left in a turn's own TryWriteBuffers (writeInline),
	// writtenBySender through a sender goroutine. Reported by Counters; the
	// switched total is the sum of the first two.
	switchedInline  atomic.Uint64
	switchedViaRing atomic.Uint64
	writtenInline   atomic.Uint64
	writtenBySender atomic.Uint64
	// Queue-delay and batch-size distributions, shipped with each status
	// report. Observe lock-free; safe from any goroutine.
	ctrlDelayHist   metrics.Histogram
	dataDelayHist   metrics.Histogram
	switchBatchHist metrics.Histogram
	sendBatchHist   metrics.Histogram

	// localRing holds source-injected data, drained like a receiver. The
	// first StartSource builds it, under mu and only while the node is not
	// stopping, so Stop, which sets stopping first, sees any ring there
	// will be. Until then the node reads as having an empty one
	// (localQueued).
	localRing atomic.Pointer[queue.Ring]
	localApps map[uint32]*source
	obs       *observerLink

	// Observer failover state, guarded by mu. obsIdx indexes the
	// cfg.Observers entry currently targeted; obsLast is the observer that
	// last admitted a registration (zero before the first);
	// obsRetrying guards the singleton reconnect loop; obsPending stashes
	// observer-bound messages that were queued or sent while no link was
	// up, flushed in order after the next successful registration.
	obsIdx      int
	obsLast     message.NodeID
	obsRetrying bool
	obsPending  []*message.Msg
	// obsBackoff paces observer reconnects. It persists across link
	// losses — rotation through the failover list shares one progression,
	// so an unreachable or refusing tier is not hammered at base rate per
	// entry — and restarts only with an admitted registration. Touched by
	// the singleton reconnect loop only.
	obsBackoff *backoff
	// obsDialer opens the observer link; Stop closes it, so a handshake
	// in flight does not hold Stop for the handshake deadline.
	obsDialer Dialer

	// Token-holder-only state: read and written under turnMu.
	pingSent     map[uint32]time.Time
	probeRecv    map[probeKey]*probeAgg
	nextToken    uint32
	lastEventSeq uint64     // recorder cursor already shipped in a report
	rates        []linkRate // the status tick's scratch
	// The switch's scheduler state — see switch.go. dirty lists the senders
	// whose queue (sender.out) is not empty, inlineVec and inlineArena are
	// writeInline's scratch (the buffers it hands the transport, and on a
	// datagram lane the frames' bytes), switchBuf the quantum's batch
	// buffer, localPass the local-source ring's stride virtual time,
	// lastDest/lastSender the one-entry sender cache, recvList the sorted
	// receiver list as of recvListGen.
	dirty       []*sender
	inlineVec   [][]byte
	inlineArena []byte
	switchBuf   []*message.Msg
	localPass   float64
	lastDest    message.NodeID
	lastSender  *sender
	recvList    []*receiver
	recvListGen uint64

	done    chan struct{}
	started bool
	wg      sync.WaitGroup
	stopMu  sync.Mutex
}

var _ API = (*Engine)(nil)

// New constructs an engine; Start must be called to run it.
func New(cfg Config) (*Engine, error) { return newEngine(cfg, fixedTiming) }

func newEngine(cfg Config, timing linkTiming) (*Engine, error) {
	if cfg.Algorithm == nil {
		return nil, errors.New("engine: Config.Algorithm is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("engine: Config.Transport is required")
	}
	if cfg.ID.IsZero() {
		return nil, errors.New("engine: Config.ID is required")
	}
	cfg.applyDefaults()
	if cfg.DatagramData {
		if _, ok := cfg.Transport.(PacketTransport); !ok {
			return nil, errors.New("engine: Config.DatagramData requires a Transport implementing PacketTransport")
		}
		if cfg.DatagramMTU < message.MinDgramMTU {
			return nil, fmt.Errorf("engine: Config.DatagramMTU %d below minimum %d",
				cfg.DatagramMTU, message.MinDgramMTU)
		}
	}
	e := &Engine{
		cfg:       cfg,
		timing:    timing,
		id:        cfg.ID,
		addr:      cfg.ID.Addr(),
		alg:       cfg.Algorithm,
		budget:    bandwidth.NewNodeBudget(cfg.TotalBW, cfg.UpBW, cfg.DownBW),
		maxParked: int64(parkedPerSendSlot * cfg.SendBuf),
		rec:       trace.New(DefaultEventLog),
		receivers: make(map[message.NodeID]*receiver),
		senders:   make(map[message.NodeID]*sender),
		linkRates: make(map[message.NodeID]int64),
		work:      make(chan struct{}, 1),
		localApps: make(map[uint32]*source),
		pingSent:  make(map[uint32]time.Time),
		switchBuf: make([]*message.Msg, cfg.BatchSize),
		done:      make(chan struct{}),
	}
	e.inbox.init()
	e.down = e.budget.DownShaper()
	e.hello = message.New(protocol.TypeHello, cfg.ID, 0, 0, nil).AppendHeader(nil)
	e.obsBackoff = e.newBackoff(0) // sender loops salt with their peer
	e.door = &admission.Door{
		Gate: admission.New(cfg.Admission), ID: e.id, HelloTimeout: timing.Handshake,
		Counters: &e.counters, Rec: e.rec, Done: e.done, WG: &e.wg,
	}
	return e, nil
}

// Recorder exposes the node's flight recorder for experiment harnesses
// and debug endpoints. Safe from any goroutine.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Admission snapshots the admission gate's counters — admitted and shed
// connections, in-flight handshake tokens and their peak. Zero when
// admission control is disabled. Safe from any goroutine.
func (e *Engine) Admission() admission.Stats { return e.door.Gate.Stats() }

// Events snapshots the flight recorder's currently retained events in
// sequence order. Safe from any goroutine.
func (e *Engine) Events() []trace.Event { return e.rec.Snapshot() }

// Note records a structured event in the node's flight recorder. Part of
// the API interface; unlike most of the API it is lock-free and safe from
// any goroutine.
func (e *Engine) Note(kind trace.Kind, peer message.NodeID, app uint32, value int64) {
	e.rec.Emit(kind, peer, app, value)
}

// ----- buffered-bytes gauge -----

// credit takes n bytes of disposed-of message references off the gauge.
func (e *Engine) credit(n int64) {
	v := e.buffered.Add(-n)
	if invariant.Enabled {
		invariant.Assert(v >= 0, "buffered-bytes gauge negative (%d) after a credit of %d", v, n)
	}
}

// disown releases a message reference the node was charged for and will
// not pass on, crediting the gauge with its wire bytes.
func (e *Engine) disown(m *message.Msg) {
	wl := int64(m.WireLen())
	m.Release()
	e.credit(wl)
}

// ingest is the one way data enters the node on a path that may block —
// a stream receiver's decoded batch, a local source's generated one. The
// batch is charged to the gauge and pushed onto ring, blocking while the
// ring is full: that wait is the overload policy, back-pressure onto the
// upstream connection or the source. False means the engine closed the
// ring under the push and the caller must stand down; what the ring
// refused is disowned here.
func (e *Engine) ingest(ring *queue.Ring, batch []*message.Msg, bytes int64) bool {
	e.buffered.Add(bytes)
	if n, err := ring.PushBatch(batch); err != nil {
		for _, m := range batch[n:] {
			e.disown(m)
		}
		return false
	}
	e.signalWork()
	return true
}

// localQueued reports how many source-injected messages wait in the local
// ring: zero for a node that has never started a source.
func (e *Engine) localQueued() int {
	if lr := e.localRing.Load(); lr != nil {
		return lr.Len()
	}
	return 0
}

// BufferedBytes reports the wire bytes of every message reference the node
// holds: buffered, parked, or being switched or written. Safe from any
// goroutine.
func (e *Engine) BufferedBytes() int64 { return e.buffered.Load() }

// MaxBufferedBytes reports the high-water mark of BufferedBytes. Safe from
// any goroutine.
func (e *Engine) MaxBufferedBytes() int64 { return e.buffered.Max() }

// QueueDelays reports the worst smoothed per-class queueing delay across
// the node's sender rings — how long control and data messages sat queued
// before reaching the wire. Safe from any goroutine.
func (e *Engine) QueueDelays() (ctrl, data time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.senders {
		c, d := s.ring.Delays()
		if c > ctrl {
			ctrl = c
		}
		if d > data {
			data = d
		}
	}
	return ctrl, data
}

// ID reports the node identity.
func (e *Engine) ID() message.NodeID { return e.id }

// Observer reports the observer the engine currently targets: the
// configured one, or — after a failover — the failover-list entry the
// engine moved to. Safe from any goroutine.
func (e *Engine) Observer() message.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observerTargetLocked()
}

// observerTargetLocked returns the failover-list entry currently
// targeted, zero without one. Caller holds e.mu.
func (e *Engine) observerTargetLocked() message.NodeID {
	if len(e.cfg.Observers) == 0 {
		return message.NodeID{}
	}
	return e.cfg.Observers[e.obsIdx]
}

// advanceObserver rotates the target to the next failover-list entry; a
// no-op for single-observer configurations.
func (e *Engine) advanceObserver() {
	e.mu.Lock()
	if n := len(e.cfg.Observers); n > 1 {
		e.obsIdx = (e.obsIdx + 1) % n
	}
	e.mu.Unlock()
}

// isObserverID reports whether id names any entry of the observer
// failover list.
func (e *Engine) isObserverID(id message.NodeID) bool {
	for _, o := range e.cfg.Observers {
		if o == id {
			return true
		}
	}
	return false
}

// Start binds the publicized port, attaches the algorithm, launches the
// engine goroutine and bootstraps from the observer when configured.
func (e *Engine) Start() error {
	l, err := e.cfg.Transport.Listen(e.addr)
	if err != nil {
		return fmt.Errorf("engine: listen %s: %w", e.addr, err)
	}
	if e.cfg.DatagramData {
		pc, err := e.cfg.Transport.(PacketTransport).ListenPacket(e.addr)
		if err != nil {
			_ = l.Close()
			return fmt.Errorf("engine: listen datagram %s: %w", e.addr, err)
		}
		e.pconn = pc
	}
	// Attach may Send; the engine goroutine does not exist yet, so the
	// token is held here and its first turn flushes what Attach staged.
	e.turnMu.Lock()
	e.alg.Attach(e)
	e.turnMu.Unlock()

	e.wg.Add(2)
	go e.door.AcceptLoop(l, e.handshake)
	go e.run()
	if e.pconn != nil {
		e.wg.Add(1)
		go e.runDgramReader(e.pconn)
	}
	e.started = true

	if len(e.cfg.Observers) > 0 {
		// The first attempt runs on the loop too: Start must not wait for
		// the observer's reply.
		e.scheduleObserverReconnect(true)
	}
	return nil
}

// scheduleObserverReconnect launches the background loop that brings up
// an observer link — the first attempt at once when now is set (Start),
// every other one after a delay from the engine's persistent capped
// backoff, floored by a refusal's retry-after hint — so a crashed or
// refusing tier is not hammered by its whole cluster at a fixed interval.
// Each failed attempt rotates to the next failover-list entry. At most one
// loop runs at a time: a second caller (a racing observerGone, say) would
// otherwise double-advance the rotation and double-dial.
func (e *Engine) scheduleObserverReconnect(now bool) {
	e.mu.Lock()
	if e.stopping || e.departing || e.obsRetrying {
		// A departing node deregistered on purpose; redialing the observer
		// now would race the shutdown (and un-depart the node in the
		// observer's eyes).
		e.mu.Unlock()
		return
	}
	e.obsRetrying = true
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for ; ; now = false {
			if !now {
				d := e.obsBackoff.next()
				e.rec.Emit(trace.KindBackoff, e.Observer(), 0, int64(d))
				select {
				case <-e.done:
					return
				case <-time.After(d):
				}
			}
			hint, err := e.connectObserver()
			if err == nil {
				return
			}
			e.advanceObserver()
			e.obsBackoff.floor(hint)
		}
	}()
}

// connectObserver makes one attempt at the observer link: the handshake
// with the targeted entry, then the link's installation. It ends the
// reconnect loop — nil — once the link is up or the node is going away;
// a refusal's retry-after hint comes back with the error.
func (e *Engine) connectObserver() (time.Duration, error) {
	e.mu.Lock()
	target := e.observerTargetLocked()
	e.mu.Unlock()
	conn, hint, err := e.obsDialer.Dial(e.cfg.Transport, e.addr, target.Addr(), e.hello, e.timing.Handshake)
	e.mu.Lock()
	if e.stopping || e.departing {
		// Shutdown won the race while this dial was in flight.
		e.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		return 0, nil
	}
	if err != nil {
		e.mu.Unlock()
		return hint, err
	}
	o := &observerLink{Link: NewLink(conn, obsLinkCap, &e.wg), peer: target}
	e.obs = o
	// The loop steps aside in the same critical section that installs the
	// link: from here on, the link's death starts the next loop.
	e.obsRetrying = false
	pending := e.obsPending
	e.obsPending = nil
	// An admitted registration restarts the backoff progression — a
	// flapping observer must not leave healthy nodes stuck at max backoff
	// for the next flap — and a move to another failover-list entry is a
	// failover.
	e.obsBackoff.reset()
	prev := e.obsLast
	e.obsLast = target
	idx := e.obsIdx
	e.mu.Unlock()
	if !prev.IsZero() && prev != target {
		e.counters.AddFailover()
		e.rec.Emit(trace.KindObsFailover, target, 0, int64(idx))
	}
	e.wg.Add(1)
	go e.runObserverReader(o)

	// Boot first — it (re-)registers the node — then the stash of
	// reports and traces that were in flight when the previous link
	// died, in their original order.
	boot := message.New(protocol.TypeBoot, e.id, 0, 0, nil)
	if !o.Send(boot) {
		boot.Release()
	}
	for i, m := range pending {
		if !o.Send(m) {
			for _, mm := range pending[i:] {
				e.counters.AddDropped(int64(mm.WireLen()))
				mm.Release()
			}
			break
		}
	}
	return 0, nil
}

// Depart leaves the overlay gracefully — the paper's deregistration,
// distinct from a crash. The node first tells the observer it is leaving
// (so bootstrap stops handing out its address and monitoring records a
// departure rather than a failure), halts its local sources, waits up to
// departureGrace for queued outgoing messages to drain to
// downstream peers, and only then stops. Peers still observe LinkDown
// when the connections close, but no queued data is lost to the
// departure. Safe to call from any goroutine; idempotent with Stop.
func (e *Engine) Depart() {
	e.mu.Lock()
	if e.stopping || e.departing {
		e.mu.Unlock()
		return
	}
	e.departing = true // no new observer reconnect attempts from here on
	obs := e.obs
	sources := make([]*source, 0, len(e.localApps))
	for _, s := range e.localApps {
		sources = append(sources, s)
	}
	e.mu.Unlock()

	if obs != nil {
		dep := message.New(protocol.TypeDepart, e.id, 0, 0, nil)
		if !obs.Send(dep) {
			dep.Release()
		}
	}
	for _, s := range sources {
		s.halt()
	}
	// Wait for the pipeline to drain: local injections, the parked backlog,
	// sender rings and in-flight writes all empty (or the grace period
	// expires, so a congested or dead downstream cannot hold the departure
	// hostage).
	deadline := time.Now().Add(departureGrace)
	for !e.drainedForDeparture() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	e.Stop()
}

// drainedForDeparture reports whether no queued outgoing data remains. It
// takes the turn token for the look: between turns everything the node has
// accepted is in a ring, parked or written, so one sample is exact — a
// batch popped from the local ring and not yet staged cannot hide from it.
func (e *Engine) drainedForDeparture() bool {
	e.turnMu.Lock()
	defer e.turnMu.Unlock()
	// Parked messages are outbound data too: they reach their sender ring
	// or the wire only on a later flush.
	if e.localQueued() > 0 || e.parked.Load() > 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopping {
		return true
	}
	for _, s := range e.senders {
		// Idle is empty and nothing popped-but-unwritten, read under one
		// lock: a sender caught between its pop and its write is not idle.
		if !s.ring.Idle() {
			return false
		}
	}
	if e.obs != nil && e.obs.Queued() > 0 {
		return false
	}
	return true
}

// Stop terminates the node gracefully: sources stop, buffers close, all
// goroutines drain and exit, and every connection is shut down — the
// observer-initiated termination the paper describes. Stop is idempotent
// and safe to call from any goroutine.
func (e *Engine) Stop() {
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	if !e.started {
		return
	}
	e.mu.Lock()
	if e.stopping {
		e.mu.Unlock()
		return
	}
	e.stopping = true
	receivers := make([]*receiver, 0, len(e.receivers))
	for _, r := range e.receivers {
		receivers = append(receivers, r)
	}
	senders := make([]*sender, 0, len(e.senders))
	for _, s := range e.senders {
		senders = append(senders, s)
	}
	obs := e.obs
	sources := make([]*source, 0, len(e.localApps))
	for _, s := range e.localApps {
		sources = append(sources, s)
	}
	e.mu.Unlock()

	close(e.done)
	e.inbox.close()
	e.door.Close()
	if e.pconn != nil {
		_ = e.pconn.Close()
	}
	for _, s := range sources {
		s.halt()
	}
	if lr := e.localRing.Load(); lr != nil {
		lr.Close()
		e.credit(lr.Drain())
	}
	for _, r := range receivers {
		_ = r.conn.Close()
		r.ring.Close()
		e.credit(r.ring.Drain())
	}
	for _, s := range senders {
		s.ring.Close() // sender goroutine flushes and closes the conn
		s.linkLimit.Close()
		// A sender blocked mid-Write toward a congested peer would hold
		// shutdown hostage; close the connection so the write returns.
		// Bytes already written remain deliverable (graceful close).
		if s.dialed.Load() {
			if s.conn != nil {
				_ = s.conn.Close()
			}
		} else {
			// Still dialing: the closed ring ends the attempt loop, and a
			// handshake waiting on the peer's reply is cut short here.
			s.dialer.Close()
		}
	}
	if obs != nil {
		obs.Close()
	}
	e.obsDialer.Close()
	e.budget.Close()
	e.wg.Wait()
	for _, s := range senders {
		e.dropOut(s, false)
		e.credit(s.ring.Drain())
	}
	e.mu.Lock()
	pending := e.obsPending
	e.obsPending = nil
	e.mu.Unlock()
	for _, m := range pending {
		e.counters.AddDropped(int64(m.WireLen()))
		m.Release()
	}
	if invariant.Enabled {
		// Every ring is drained, every link's queue released and every
		// goroutine that could hold a popped batch gone: the gauge must
		// read exactly zero, or some path lost track of a reference.
		invariant.Assert(e.buffered.Load() == 0,
			"buffered-bytes gauge %d after Stop disposed of everything", e.buffered.Load())
	}
}

// run is the engine goroutine: the Go analogue of the paper's engine
// thread, multiplexing control messages, internal events, switch work and
// periodic measurement. It holds the turn token for every turn and gives
// it up only while it waits; every Algorithm.Process call happens under
// that token, here or in a receiver's switchInline.
func (e *Engine) run() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.StatusInterval)
	defer ticker.Stop()
	e.turnMu.Lock()
	for {
		// Whatever the turn just ended staged — or Attach did, before this
		// goroutine existed — goes out before the engine waits again.
		e.flushOut()
		e.turnMu.Unlock()
		select {
		case <-e.inbox.ready:
			e.turnMu.Lock()
			e.runQueued()
		case <-e.work:
			e.turnMu.Lock()
			// Control before data: a work signal competes fairly with the
			// inbox in this select, so under saturation a pure select would
			// serve data half the time. Draining pending control first keeps
			// failure notifications ahead of payload.
			e.drainControl()
			e.switchOnce()
		case <-ticker.C:
			e.turnMu.Lock()
			e.periodic()
		case <-e.done:
			return
		}
	}
}

// assertTurn fails an ioverlay_debug build when nobody holds the turn
// token: the mutex is its own owner word, and a TryLock that succeeds has
// just proved the caller ran token-holder-only code without it. (Two
// callers at once, one of them holding it, is the race detector's to find:
// every such path touches unsynchronised state.)
func (e *Engine) assertTurn(what string) {
	if invariant.Enabled && e.turnMu.TryLock() {
		e.turnMu.Unlock()
		invariant.Assert(false, "%s without the turn token: Process ownership violated", what)
	}
}

// runQueued runs the inbox's next turn, a control message before an event.
// The inbox may be empty: a work turn's drainControl may have run what the
// ready signal was for. Engine goroutine only, holding the token.
func (e *Engine) runQueued() {
	cm, fn, ok := e.inbox.next()
	if !ok {
		return
	}
	if fn != nil {
		fn(e)
	} else {
		e.process(cm)
	}
	e.waiting.Add(-1)
}

// maxCtrlDrain bounds how many queued control messages one switch pass
// consumes ahead of data, so a control storm cannot starve the switch.
const maxCtrlDrain = 64

// drainControl consumes pending control messages ahead of the next switch
// pass. Engine goroutine only, holding the token.
func (e *Engine) drainControl() {
	for i := 0; i < maxCtrlDrain; i++ {
		cm, ok := e.inbox.nextControl()
		if !ok {
			return
		}
		e.process(cm)
		e.waiting.Add(-1)
	}
}

// Do schedules fn as a turn of the engine goroutine with the engine's API — the
// programmatic equivalent of an observer command, used by tests and
// experiment harnesses to drive algorithms without a live observer. Safe
// from any goroutine; fn is dropped if the engine is stopping. With 4096
// events already waiting for the engine goroutine, Do waits for room. Do
// itself allocates nothing once the inbox has grown to the depth it is
// driven at: fn is queued as it is.
func (e *Engine) Do(fn func(api API)) {
	e.postEvent(fn)
}

// signalWork nudges the engine goroutine to run a switch pass. Safe from
// any goroutine.
func (e *Engine) signalWork() {
	select {
	case e.work <- struct{}{}:
	default:
	}
}

// postEvent schedules fn as a turn of the engine goroutine, which calls it
// with itself, waiting while maxQueuedEvents events are queued; events are
// dropped only once Stop has closed the inbox.
func (e *Engine) postEvent(fn func(API)) {
	e.waiting.Add(1)
	if !post(&e.inbox, &e.inbox.events, maxQueuedEvents, fn) {
		e.waiting.Add(-1)
	}
}

// deliverControl routes a wire control message to the engine goroutine,
// waiting while maxQueuedControl control messages are queued — the
// back-pressure a control storm puts on the link that carries it. After
// Stop the message is released instead.
func (e *Engine) deliverControl(m *message.Msg, from message.NodeID) {
	e.waiting.Add(1)
	if !post(&e.inbox, &e.inbox.ctrl, maxQueuedControl, ctrlMsg{m: m, from: from}) {
		e.waiting.Add(-1)
		m.Release()
	}
}

// notifyAlg delivers an engine-produced notification to the algorithm, in
// a pooled message holding a copy of payload: callers may encode it into a
// buffer on their stack.
func (e *Engine) notifyAlg(typ message.Type, app uint32, payload []byte) {
	e.assertTurn("notifyAlg")
	m := sharedPool.Get(typ, e.id, app, 0, len(payload))
	copy(m.Payload(), payload)
	if e.alg.Process(m) == Done {
		m.Release()
	}
}

func (e *Engine) senderLocked(peer message.NodeID) *sender {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.senders[peer]
}

// ----- sending -----

// Send forwards m to dest, retaining a reference for the transfer. Part
// of the API interface; must be called from within a turn. Control
// messages go to the destination ring's priority lane, so a failure
// notification never waits behind parked data.
func (e *Engine) Send(m *message.Msg, dest message.NodeID) {
	if dest == e.id {
		return // self-sends are meaningless in the overlay
	}
	m.Retain()
	if e.isObserverID(dest) {
		// Any failover-list entry counts as "the observer": after a
		// failover an algorithm still holding the old address must not
		// open an overlay link to a dead (or live) observer.
		e.sendToObserver(m)
		return
	}
	e.deliverOut(m, dest)
}

// SendNew sends an algorithm-constructed message to each destination and
// releases the construction reference. Part of the API interface.
func (e *Engine) SendNew(m *message.Msg, dests ...message.NodeID) {
	for _, d := range dests {
		e.Send(m, d)
	}
	m.Release()
}

// Finish releases a message previously held by the algorithm. Part of the
// API interface.
func (e *Engine) Finish(m *message.Msg) { m.Release() }

// obsLinkCap bounds the observer link's outbound ring, and maxObsPending
// the stash of observer-bound messages retained across an observer
// failover; overflow of either falls back to the drop counter.
const (
	obsLinkCap    = 256
	maxObsPending = 256
)

// sendToObserver is the one road to the observer, for status reports and
// trace records alike; it takes over m's reference.
func (e *Engine) sendToObserver(m *message.Msg) {
	if len(e.cfg.Observers) == 0 {
		m.Release() // nothing to report to, so nothing is lost
		return
	}
	e.mu.Lock()
	o := e.obs
	if o == nil && !e.stopping && !e.departing && len(e.obsPending) < maxObsPending {
		// Between observer links (failover in progress): stash instead
		// of dropping, flushed after the next successful registration so
		// reports spanning the switch are not lost.
		e.obsPending = append(e.obsPending, m)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	if o == nil || !o.Send(m) {
		e.counters.AddDropped(int64(m.WireLen()))
		m.Release()
	}
}

// ensureSender finds or creates the persistent outgoing link to peer.
func (e *Engine) ensureSender(peer message.NodeID) *sender {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopping {
		return nil
	}
	if s, ok := e.senders[peer]; ok {
		return s
	}
	rate := e.linkRates[peer]
	s := newSender(peer, e.cfg.SendBuf, rate)
	s.ring.SetDelayHists(&e.ctrlDelayHist, &e.dataDelayHist)
	e.senders[peer] = s
	e.wg.Add(1)
	go e.runSender(s)
	return s
}

// ----- link failure and teardown -----

// receiverGone handles an incoming-link failure in a turn of the engine goroutine:
// clear data structures, notify the algorithm, and propagate broken
// sources downstream (the domino effect), all transparent to algorithms.
func (e *Engine) receiverGone(r *receiver) {
	e.mu.Lock()
	if e.receivers[r.peer] != r {
		e.mu.Unlock()
		return // already replaced or removed
	}
	delete(e.receivers, r.peer)
	e.recvGen.Add(1)
	e.mu.Unlock()

	if r.inactivity != nil {
		r.inactivity.Stop()
	}
	_ = r.conn.Close()
	r.ring.Close()
	e.dropQueued(&r.ring)
	e.rec.Emit(trace.KindLinkDown, r.peer, 0, 1)
	var b [protocol.LinkEventSize]byte
	e.notifyAlg(protocol.TypeLinkDown, 0,
		protocol.LinkEvent{Peer: r.peer, Upstream: true}.Append(b[:0]))
	for _, app := range r.apps {
		if !e.appStillSupplied(app, r.peer) {
			e.brokenSource(app, r.peer)
		}
	}
}

// appStillSupplied reports whether data for app still arrives from another
// upstream or a local source.
func (e *Engine) appStillSupplied(app uint32, except message.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.localApps[app]; ok {
		return true
	}
	for peer, r := range e.receivers {
		if peer == except {
			continue
		}
		if r.apps.has(app) {
			return true
		}
	}
	return false
}

// brokenSource notifies the local algorithm that app's upstream failed and
// cascades a BrokenSource control message to every downstream this node
// forwarded the app to.
func (e *Engine) brokenSource(app uint32, upstream message.NodeID) {
	var b [protocol.BrokenSourceSize]byte
	e.notifyAlg(protocol.TypeBrokenSource, app,
		protocol.BrokenSource{App: app, Upstream: upstream}.Append(b[:0]))

	// A sender's apps are token-holder state, like this whole cascade path.
	var dests []message.NodeID
	e.mu.Lock()
	for peer, s := range e.senders {
		if s.apps.remove(app) {
			dests = append(dests, peer)
		}
	}
	e.mu.Unlock()
	sortIDs(dests)
	for _, d := range dests {
		fwd := protocol.BrokenSource{App: app, Upstream: e.id}.Encode()
		e.SendNew(message.New(protocol.TypeBrokenSource, e.id, app, 0, fwd), d)
	}
}

// senderGone handles an outgoing-link failure in a turn of the engine goroutine.
func (e *Engine) senderGone(s *sender) {
	e.mu.Lock()
	if e.senders[s.peer] != s {
		e.mu.Unlock()
		return
	}
	delete(e.senders, s.peer)
	e.mu.Unlock()

	e.forgetSender(s)
	s.ring.Close()
	e.dropQueued(&s.ring)
	s.linkLimit.Close()
	e.dropOut(s, true)
	e.rec.Emit(trace.KindLinkDown, s.peer, 0, 0)
	var b [protocol.LinkEventSize]byte
	e.notifyAlg(protocol.TypeLinkDown, 0,
		protocol.LinkEvent{Peer: s.peer, Upstream: false}.Append(b[:0]))
}

// observerGone clears the observer link after a failure, salvages its
// queued messages into the failover stash, rotates to the next observer
// and begins reconnecting.
func (e *Engine) observerGone(o *observerLink) {
	e.mu.Lock()
	if e.obs != o {
		e.mu.Unlock()
		return
	}
	e.obs = nil
	stopping := e.stopping
	e.mu.Unlock()
	o.Close()
	// Salvage whatever the dead link never wrote — reports, traces — so
	// the messages survive the failover instead of draining to nowhere.
	e.mu.Lock()
	for _, m := range o.Unsent() {
		if stopping || e.stopping || len(e.obsPending) >= maxObsPending {
			e.counters.AddDropped(int64(m.WireLen()))
			m.Release()
			continue
		}
		e.obsPending = append(e.obsPending, m)
	}
	e.mu.Unlock()
	if !stopping {
		e.advanceObserver()
		e.scheduleObserverReconnect(false)
	}
}

// CloseLink gracefully tears down the outgoing link to peer. Part of the
// API interface.
func (e *Engine) CloseLink(peer message.NodeID) {
	e.flushOut() // what was sent before the close still goes out
	e.mu.Lock()
	s := e.senders[peer]
	if s != nil {
		delete(e.senders, peer)
	}
	e.mu.Unlock()
	if s == nil {
		return
	}
	e.forgetSender(s)
	s.ring.Close() // sender goroutine flushes remaining messages and exits
	// A link that is still dialing has nothing to flush to: its attempt
	// loop ends at the closed ring, and a handshake waiting on the peer's
	// reply is cut short rather than sat out.
	s.dialer.Close()
	s.linkLimit.Close()
	e.dropOut(s, false)
}
