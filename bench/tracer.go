package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// The traced run observes the engine from outside, at the two seams it
// already exposes: an Algorithm wrapper records a span around Process for
// the sampled messages, and a Transport wrapper counts and times the
// connection calls. Nothing inside the engine is touched; spans inside it
// are a later change.

// maxSpans bounds the spans kept per node; later ones are not recorded, so
// memory stays fixed however long the run.
const maxSpans = 1 << 16

// traceFileSpans bounds the spans per node written to the trace file.
const traceFileSpans = 2048

// span is one Process call on one node. The message's sequence number is
// the identifier shared by the spans of one message; the causing span is
// the span with the same seq on the upstream node.
type span struct {
	seq        uint32
	start, end int64 // benchmark clock, ns
}

// nodeTrace collects what the wrappers of one node see. Spans are written
// by the node's engine goroutine only and read after the engine stopped;
// the connection counters are updated from sender and receiver goroutines.
type nodeTrace struct {
	spans []span

	readCalls, readBytes atomic.Int64
	writeCalls           atomic.Int64
	writeNs              atomic.Int64 // busy + back-pressure wait inside Write/WriteBuffers/WriteToBatch
}

func (nt *nodeTrace) addSpan(seq uint32, start, end int64) {
	if len(nt.spans) < cap(nt.spans) {
		nt.spans = append(nt.spans, span{seq, start, end})
	}
}

type tracer struct {
	spec  spec
	nodes []*nodeTrace
}

func newTracer(s spec) *tracer {
	t := &tracer{spec: s}
	for i := 0; i < s.nodes; i++ {
		n := maxSpans
		if s.shape == hubShape {
			n = 4096 // a leaf sees a few messages per second
		}
		t.nodes = append(t.nodes, &nodeTrace{spans: make([]span, 0, n)})
	}
	return t
}

// traceAll reports whether every message is traced rather than a sample:
// link_churn moves a few hundred messages a second, and its per-leaf
// sequence numbers are too small to sample by.
func (s spec) traceAll() bool { return s.shape == hubShape }

// tracedAlg wraps a node's algorithm and records a span around Process
// for sampled data messages.
type tracedAlg struct {
	inner engine.Algorithm
	nt    *nodeTrace
	all   bool
}

var _ engine.Algorithm = (*tracedAlg)(nil)

func (t *tracedAlg) Attach(api engine.API) { t.inner.Attach(api) }

func (t *tracedAlg) Process(m *message.Msg) engine.Verdict {
	if !m.IsData() {
		return t.inner.Process(m)
	}
	seq := m.Seq() // read first: the message may be released by the time Process returns
	if !t.all && !sampled(seq) {
		return t.inner.Process(m)
	}
	start := nowNs()
	v := t.inner.Process(m)
	t.nt.addSpan(seq, start, nowNs())
	return v
}

// tracedTransport wraps the virtual network's transport so every
// connection of the node is counted. The wrapped connections forward every
// fast path the engine type-asserts for (WriteBuffers, WriteToBatch,
// TryReadDgrams), so the traced run takes the same code paths as the
// untraced one.
type tracedTransport struct {
	inner engine.VNet
	nt    *nodeTrace
}

var _ engine.Transport = (*tracedTransport)(nil)
var _ engine.PacketTransport = (*tracedTransport)(nil)

func (t *tracedTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, nt: t.nt}, nil
}

func (t *tracedTransport) DialFrom(local, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := t.inner.DialFrom(local, addr, timeout)
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, t.nt), nil
}

func (t *tracedTransport) ListenPacket(addr string) (net.PacketConn, error) {
	pc, err := t.inner.ListenPacket(addr)
	if err != nil {
		return nil, err
	}
	// A vnet endpoint has both batch paths; the assertions state it.
	return &tracedPacketConn{PacketConn: pc, bw: pc.(packetBatchWriter), br: pc.(packetBatchReader), nt: t.nt}, nil
}

func (t *tracedTransport) PacketAddr(addr string) (net.Addr, error) {
	return t.inner.PacketAddr(addr)
}

type tracedListener struct {
	net.Listener
	nt *nodeTrace
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, l.nt), nil
}

// The engine's fast-path interfaces, restated here because the engine
// keeps them unexported.
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

type packetBatchWriter interface {
	WriteToBatch(bufs [][]byte, to net.Addr) (int, error)
}

type packetBatchReader interface {
	TryReadDgrams(dst []vnet.Dgram) int
}

type tracedConn struct {
	net.Conn
	bw buffersWriter // the inner vnet connection's vectored write
	nt *nodeTrace
}

var _ buffersWriter = (*tracedConn)(nil)

func newTracedConn(c net.Conn, nt *nodeTrace) *tracedConn {
	return &tracedConn{Conn: c, bw: c.(buffersWriter), nt: nt}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.nt.readCalls.Add(1)
	c.nt.readBytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := c.Conn.Write(p)
	c.nt.writeNs.Add(nowNs() - start)
	c.nt.writeCalls.Add(1)
	return n, err
}

func (c *tracedConn) WriteBuffers(bufs [][]byte) (int64, error) {
	start := nowNs()
	n, err := c.bw.WriteBuffers(bufs)
	c.nt.writeNs.Add(nowNs() - start)
	c.nt.writeCalls.Add(1)
	return n, err
}

type tracedPacketConn struct {
	net.PacketConn
	bw packetBatchWriter
	br packetBatchReader
	nt *nodeTrace
}

var _ packetBatchWriter = (*tracedPacketConn)(nil)
var _ packetBatchReader = (*tracedPacketConn)(nil)

func (p *tracedPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, from, err := p.PacketConn.ReadFrom(b)
	p.nt.readCalls.Add(1)
	if err == nil {
		p.nt.readBytes.Add(int64(n))
	}
	return n, from, err
}

func (p *tracedPacketConn) WriteTo(b []byte, to net.Addr) (int, error) {
	start := nowNs()
	n, err := p.PacketConn.WriteTo(b, to)
	p.nt.writeNs.Add(nowNs() - start)
	p.nt.writeCalls.Add(1)
	return n, err
}

func (p *tracedPacketConn) WriteToBatch(bufs [][]byte, to net.Addr) (int, error) {
	start := nowNs()
	n, err := p.bw.WriteToBatch(bufs, to)
	p.nt.writeNs.Add(nowNs() - start)
	p.nt.writeCalls.Add(1)
	return n, err
}

func (p *tracedPacketConn) TryReadDgrams(dst []vnet.Dgram) int {
	n := p.br.TryReadDgrams(dst)
	if n > 0 {
		p.nt.readCalls.Add(1)
		for _, d := range dst[:n] {
			p.nt.readBytes.Add(int64(len(d.Data)))
		}
	}
	return n
}

// connTotals sums the connection counters over all nodes.
type connTotals struct {
	readCalls, readBytes, writeCalls, writeNs int64
}

func (t *tracer) connTotals() connTotals {
	var c connTotals
	for _, nt := range t.nodes {
		c.readCalls += nt.readCalls.Load()
		c.readBytes += nt.readBytes.Load()
		c.writeCalls += nt.writeCalls.Load()
		c.writeNs += nt.writeNs.Load()
	}
	return c
}

// spanStats derives the span metrics once every engine has stopped:
// the mean Process duration on the nodes running the repo's Forwarder
// (a Process span has no child spans, so its duration is its self time),
// and the transit of each sampled message from Process return on a node to
// Process entry on its downstream node.
func (t *tracer) spanStats() (processNs float64, transit []float64) {
	var sum, n int64
	for i, nt := range t.nodes {
		if i == 0 || t.spec.isSink(i) {
			continue // node 0 only injects; sinks are the benchmark's own
		}
		for _, sp := range nt.spans {
			sum += sp.end - sp.start
			n++
		}
	}
	if n > 0 {
		processNs = float64(sum) / float64(n)
	}
	if t.spec.traceAll() {
		return processNs, nil // per-leaf sequence numbers do not identify a hub-side cause
	}
	for j := 1; j < len(t.nodes); j++ {
		up := t.nodes[t.spec.parent(j)].spans
		ends := make(map[uint32]int64, len(up))
		for _, sp := range up {
			ends[sp.seq] = sp.end
		}
		for _, sp := range t.nodes[j].spans {
			if e, ok := ends[sp.seq]; ok {
				transit = append(transit, float64(sp.start-e)/1e3)
			}
		}
	}
	sort.Float64s(transit)
	return processNs, transit
}

// writeFile writes the first traceFileSpans spans of every node as JSON:
// one object per span with its name, node, shared identifier (seq), start,
// end, and the node whose span with the same seq caused it.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since benchmark start\",\"sample_every\":%d,\"spans\":[\n", t.spec.name, sampleEvery)
	first := true
	for i, nt := range t.nodes {
		name, cause := "Process", -1
		if i > 0 {
			cause = t.spec.parent(i)
		} else if t.spec.rate > 0 {
			name = "inject"
		}
		for k, sp := range nt.spans {
			if k == traceFileSpans {
				break
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(w, "{\"name\":%q,\"node\":%d,\"seq\":%d,\"start\":%d,\"end\":%d,\"cause_node\":%d}",
				name, i, sp.seq, sp.start, sp.end, cause)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
