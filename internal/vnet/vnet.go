// Package vnet implements an in-process virtual network whose connections
// satisfy net.Conn and net.Listener. It is the testbed substrate this
// reproduction substitutes for PlanetLab: each virtualized iOverlay node
// listens on a virtual address, dials peers, and experiences TCP-like
// back-pressure through bounded pipes. Links can be severed and latency
// can be attached per network for failure and QoS experiments.
package vnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// DefaultPipeCapacity is the per-direction socket buffer, mirroring a
// typical kernel TCP buffer. Small relative to experiment traffic so that
// back-pressure propagates promptly. It is a bound, not an allocation: a
// pipe's buffer grows as bytes queue, up to the capacity, so a connection
// costs what it carries.
const DefaultPipeCapacity = 64 << 10

// Errors reported by the network.
var (
	ErrAddrInUse         = errors.New("vnet: address already in use")
	ErrConnectionRefused = errors.New("vnet: connection refused")
	ErrListenerClosed    = errors.New("vnet: listener closed")
	ErrNetworkDown       = errors.New("vnet: network closed")
	// ErrAcceptTransient is the injected transient Accept failure
	// (standing in for EMFILE/ECONNABORTED on a real socket): the accept
	// attempt failed but the listener itself is still healthy, so a
	// correct accept loop backs off and retries instead of exiting.
	ErrAcceptTransient = errors.New("vnet: transient accept error")
)

// maxBacklog bounds a listener's queue of dialed, not yet accepted
// connections: a dial past it is refused. Like the pipe capacity it is a
// bound, not an allocation: the queue grows as connections wait.
const maxBacklog = 512

// Network is one virtual internet. Addresses are arbitrary "host:port"
// strings; the network hands out ephemeral local addresses to dialers.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	packets   map[string]*PacketConn
	conns     map[*Conn]struct{}
	latencyFn func(a, b string) time.Duration
	pipeCap   int
	nextEphem int
	closed    bool

	// Fault-injection state (faults.go). cuts and flaky are keyed by the
	// normalized address pair; groups maps an address to its partition
	// group; crashed marks addresses whose node is down.
	cuts      map[pairKey]struct{}
	flaky     map[pairKey]flakySpec
	groups    map[string]int
	crashed   map[string]struct{}
	dgram     map[pairKey]dgramSpec
	dgramHeld map[pairKey]*heldDgram

	// rng drives probabilistic faults (Flaky drops); seeded so chaos
	// schedules replay deterministically.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// Option configures a Network.
type Option func(*Network)

// WithLatencyFunc attaches per-pair one-way propagation latency, keyed by
// the two endpoint addresses (symmetric: the function is called with the
// dialer's address first): written bytes become readable at the far end
// only after that delay.
func WithLatencyFunc(fn func(a, b string) time.Duration) Option {
	return func(n *Network) { n.latencyFn = fn }
}

// WithPipeCapacity overrides the per-direction buffer bound.
func WithPipeCapacity(c int) Option {
	return func(n *Network) { n.pipeCap = c }
}

// WithSeed seeds the network's fault-injection random source so that
// probabilistic faults (Flaky drops) replay deterministically.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// New constructs an empty virtual network.
func New(opts ...Option) *Network {
	n := &Network{
		listeners: make(map[string]*Listener),
		packets:   make(map[string]*PacketConn),
		conns:     make(map[*Conn]struct{}),
		pipeCap:   DefaultPipeCapacity,
		nextEphem: 40000,
		cuts:      make(map[pairKey]struct{}),
		flaky:     make(map[pairKey]flakySpec),
		crashed:   make(map[string]struct{}),
		dgram:     make(map[pairKey]dgramSpec),
		dgramHeld: make(map[pairKey]*heldDgram),
		rng:       rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// addr is a net.Addr over the virtual address space.
type addr string

func (a addr) Network() string { return "vnet" }
func (a addr) String() string  { return string(a) }

// Listen binds a listener to address. The address must be free.
func (n *Network) Listen(address string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetworkDown
	}
	if _, ok := n.listeners[address]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, address)
	}
	// A crashed node that listens again has restarted.
	delete(n.crashed, address)
	l := &Listener{net: n, address: address}
	l.ready.L = &l.mu
	n.listeners[address] = l
	return l, nil
}

// Dial connects to a listening address, assigning an ephemeral local
// address.
func (n *Network) Dial(address string) (net.Conn, error) {
	n.mu.Lock()
	local := fmt.Sprintf("ephemeral:%d", n.nextEphem)
	n.nextEphem++
	n.mu.Unlock()
	return n.DialFrom(local, address)
}

// DialFrom connects to a listening address using the given local address;
// engines use their node identity so that peers can attribute traffic.
func (n *Network) DialFrom(local, address string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetworkDown
	}
	if n.blockedLocked(local, address) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (link fault)", ErrConnectionRefused, address)
	}
	l, ok := n.listeners[address]
	var latency time.Duration
	if n.latencyFn != nil {
		latency = n.latencyFn(local, address)
	}
	pipeCap := n.pipeCap
	spec, hasFlaky := n.flaky[pairOf(local, address)]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, address)
	}

	cp := newConnPair(n, local, address, pipeCap, latency)
	client, server := &cp.client, &cp.server
	if hasFlaky {
		// New connections over a flaky link inherit its fault spec; the
		// pipes are still private here, so plain assignment is safe.
		drop := n.dropFnFor(spec.dropProb)
		cp.a2b.dropFn, cp.a2b.stallUntil = drop, spec.stallUntil
		cp.b2a.dropFn, cp.b2a.stallUntil = drop, spec.stallUntil
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, address)
	}
	if !l.enqueue(server) {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %s backlog full", ErrConnectionRefused, address)
	}
	l.mu.Unlock()

	n.mu.Lock()
	n.conns[client] = struct{}{}
	n.conns[server] = struct{}{}
	n.mu.Unlock()
	return client, nil
}

// Sever abruptly breaks every established connection between the two
// addresses (matching by listener-side address), simulating a failed
// virtual link. It reports how many connections were broken.
func (n *Network) Sever(addrA, addrB string) int {
	n.mu.Lock()
	var victims []*Conn
	for c := range n.conns {
		la, ra := c.local.String(), c.remote.String()
		if (la == addrA && ra == addrB) || (la == addrB && ra == addrA) {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.breakConn()
	}
	return len(victims)
}

// SeverNode abruptly breaks every connection touching the address and
// removes its listener, simulating a node crash.
func (n *Network) SeverNode(address string) int {
	n.mu.Lock()
	var victims []*Conn
	for c := range n.conns {
		if c.local.String() == address || c.remote.String() == address {
			victims = append(victims, c)
		}
	}
	l := n.listeners[address]
	delete(n.listeners, address)
	p := n.packets[address]
	n.mu.Unlock()
	if l != nil {
		l.close(false)
	}
	if p != nil {
		p.Close()
	}
	for _, c := range victims {
		c.breakConn()
	}
	return len(victims)
}

// Close shuts the whole network down, breaking every connection.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	listeners := make([]*Listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	packets := make([]*PacketConn, 0, len(n.packets))
	for _, p := range n.packets {
		packets = append(packets, p)
	}
	n.listeners = map[string]*Listener{}
	n.mu.Unlock()

	for _, l := range listeners {
		l.close(false)
	}
	for _, p := range packets {
		p.Close()
	}
	for _, c := range conns {
		c.breakConn()
	}
}

func (n *Network) removeListener(address string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, address)
}

func (n *Network) removeConn(c *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.conns, c)
}

// Listener accepts virtual connections.
type Listener struct {
	net     *Network
	address string

	mu sync.Mutex
	// backlog[head:] holds the dialed connections Accept has not yet
	// taken, oldest first, at most maxBacklog of them; ready is signalled
	// on mu when one is queued or the listener closes.
	backlog   []*Conn
	head      int
	ready     sync.Cond
	closed    bool
	failNext  int // pending injected transient Accept failures
	failTotal int // lifetime injected failures delivered
}

var _ net.Listener = (*Listener)(nil)

// Accept waits for the next inbound connection. Injected transient
// failures (InjectAcceptErrors) are delivered first, before blocking on
// the backlog, the way a real accept(2) surfaces EMFILE ahead of the
// queued connections it cannot yet take.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failNext > 0 {
		l.failNext--
		l.failTotal++
		l.mu.Unlock()
		return nil, ErrAcceptTransient
	}
	for l.head == len(l.backlog) && !l.closed {
		l.ready.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil, ErrListenerClosed
	}
	c := l.backlog[l.head]
	l.backlog[l.head] = nil
	l.head++
	if l.head == len(l.backlog) {
		l.backlog, l.head = l.backlog[:0], 0
	}
	l.mu.Unlock()
	return c, nil
}

// enqueue appends a dialed connection to the backlog, reporting false when
// maxBacklog connections already wait. When the slice is full it first
// slides the waiting connections down over the accepted ones, so the
// backing array never outgrows the bound. Called with mu held.
func (l *Listener) enqueue(c *Conn) bool {
	waiting := len(l.backlog) - l.head
	if waiting >= maxBacklog {
		return false
	}
	if l.head > 0 && len(l.backlog) == cap(l.backlog) {
		copy(l.backlog, l.backlog[l.head:])
		clear(l.backlog[waiting:])
		l.backlog, l.head = l.backlog[:waiting], 0
	}
	l.backlog = append(l.backlog, c)
	l.ready.Signal()
	return true
}

// InjectAcceptErrors arms the listener at address to fail its next count
// Accept calls with ErrAcceptTransient, reporting whether a listener was
// found. Connections queued meanwhile stay in the backlog and are
// delivered once the injected failures are consumed.
func (n *Network) InjectAcceptErrors(address string, count int) bool {
	n.mu.Lock()
	l, ok := n.listeners[address]
	n.mu.Unlock()
	if !ok {
		return false
	}
	l.mu.Lock()
	l.failNext += count
	l.mu.Unlock()
	return true
}

// AcceptErrorsDelivered reports how many injected transient failures the
// listener at address has surfaced so far.
func (n *Network) AcceptErrorsDelivered(address string) int {
	n.mu.Lock()
	l, ok := n.listeners[address]
	n.mu.Unlock()
	if !ok {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failTotal
}

// Close stops accepting; established connections are unaffected.
func (l *Listener) Close() error {
	l.close(true)
	return nil
}

func (l *Listener) close(unregister bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	queued := l.backlog[l.head:]
	l.backlog, l.head = nil, 0
	l.ready.Broadcast()
	l.mu.Unlock()
	if unregister {
		l.net.removeListener(l.address)
	}
	for _, c := range queued {
		c.breakConn()
	}
}

// Addr reports the bound virtual address.
func (l *Listener) Addr() net.Addr { return addr(l.address) }

// Conn is one endpoint of a virtual connection.
type Conn struct {
	net    *Network
	local  net.Addr
	remote net.Addr
	rd     *pipe
	wr     *pipe
	peer   *Conn

	closeOnce sync.Once
}

// connPair is one dialled connection in a single allocation: both
// endpoints, both pipes with their first buffers, and both addresses,
// already boxed as the net.Addr values LocalAddr and RemoteAddr return.
// A link's set-up and teardown are the control plane's steady state, so a
// connection costs the heap one object until a pipe outgrows its first
// buffer.
type connPair struct {
	client, server Conn
	a2b, b2a       pipe // client to server, server to client
	dialer, lsn    addr
}

func newConnPair(n *Network, local, address string, pipeCap int, latency time.Duration) *connPair {
	cp := &connPair{dialer: addr(local), lsn: addr(address)}
	cp.a2b.init(pipeCap, latency)
	cp.b2a.init(pipeCap, latency)
	cp.client = Conn{net: n, local: &cp.dialer, remote: &cp.lsn, rd: &cp.b2a, wr: &cp.a2b, peer: &cp.server}
	cp.server = Conn{net: n, local: &cp.lsn, remote: &cp.dialer, rd: &cp.a2b, wr: &cp.b2a, peer: &cp.client}
	return cp
}

var _ net.Conn = (*Conn)(nil)

// Read reads from the inbound pipe.
func (c *Conn) Read(b []byte) (int, error) { return c.rd.Read(b) }

// Write writes to the outbound pipe, blocking under back-pressure.
func (c *Conn) Write(b []byte) (int, error) { return c.wr.Write(b) }

// WriteBuffers writes every buffer in order under a single pipe lock
// acquisition — the vectored-write (writev-like) fast path used by engine
// senders to flush a whole batch of wire images in one operation. It
// blocks under back-pressure exactly like sequential Writes.
func (c *Conn) WriteBuffers(bufs [][]byte) (int64, error) { return c.wr.writeBuffers(bufs) }

// TryWriteBuffers is the non-blocking form of WriteBuffers: it writes the
// leading buffers that fit whole in the peer's socket buffer right now,
// under one pipe lock acquisition, and reports how many buffers and bytes
// it took. It never waits and never writes part of a buffer; zero frames
// means the pipe is full, or a blocking write on this connection is
// waiting for space.
func (c *Conn) TryWriteBuffers(bufs [][]byte) (frames int, bytes int64, err error) {
	return c.wr.tryWriteBuffers(bufs)
}

// Close gracefully closes the connection: the peer drains buffered bytes
// and then observes EOF, like a TCP FIN.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWrite()
		// The outgoing direction is a graceful FIN: bytes already
		// written stay deliverable to the peer. The incoming direction
		// is torn down hard: as with a real socket, a local Read after
		// Close fails immediately — even when a fault-injection stall
		// or undelivered buffered bytes would otherwise hold the reader
		// until the stall window passed (TCP resets on close with
		// unread data; it does not keep delivering).
		c.rd.breakPipe()
		c.net.removeConn(c)
		c.net.removeConn(c.peer)
	})
	return nil
}

// breakConn simulates an abrupt failure: both directions error at once and
// in-flight bytes are lost, like a TCP RST after a crash.
func (c *Conn) breakConn() {
	c.rd.breakPipe()
	c.wr.breakPipe()
	c.net.removeConn(c)
	c.net.removeConn(c.peer)
}

// LocalAddr reports the local virtual address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr reports the peer's virtual address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline sets the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}
