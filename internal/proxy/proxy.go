// Package proxy implements iOverlay's observer proxy: an efficient relay
// executed outside the firewall that accepts status updates from many
// overlay nodes and forwards them to the observer over a single
// connection, solving both the Windows backlog limit and the firewall
// problem the paper describes. Commands travel the reverse path inside
// relay envelopes, unwrapped here and delivered on each node's inbound
// connection.
package proxy

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Config parameterizes a Proxy.
type Config struct {
	// ID is the proxy's identity/listen address.
	ID message.NodeID
	// Observer is the upstream observer to trunk into.
	Observer message.NodeID
	// Transport supplies connectivity.
	Transport engine.Transport
}

// Ring capacities, in messages: the trunk aggregates every node's updates.
const (
	trunkCap = 1024
	nodeCap  = 256
)

// Proxy is the N-to-1 relay.
type Proxy struct {
	cfg      Config
	door     *admission.Door // the node-facing port's front door
	counters metrics.Counters
	rec      *trace.Recorder
	trunk    *engine.Link

	mu       sync.Mutex
	nodes    map[message.NodeID]*engine.Link // live node links, by node
	stopping bool

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New constructs a proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("proxy: Config.Transport is required")
	}
	if cfg.ID.IsZero() || cfg.Observer.IsZero() {
		return nil, fmt.Errorf("proxy: Config.ID and Config.Observer are required")
	}
	p := &Proxy{
		cfg:   cfg,
		rec:   trace.New(1024),
		nodes: make(map[message.NodeID]*engine.Link),
		done:  make(chan struct{}),
	}
	// The node-facing port is gated like an observer's, at the defaults.
	p.door = &admission.Door{
		Gate: admission.New(admission.Config{}), ID: cfg.ID,
		Counters: &p.counters, Rec: p.rec, Done: p.done, WG: &p.wg,
	}
	return p, nil
}

// Admission reports the node-facing gate's counters.
func (p *Proxy) Admission() admission.Stats { return p.door.Gate.Stats() }

// Counters reports the proxy's connection-handling counters.
func (p *Proxy) Counters() metrics.CountersSnapshot { return p.counters.Snapshot() }

// Events returns the proxy's flight-recorder series: its admission
// decisions.
func (p *Proxy) Events() []trace.Event { return p.rec.Snapshot() }

// Start connects the trunk to the observer and begins accepting node
// connections. An observer that refuses the trunk fails Start.
func (p *Proxy) Start() error {
	var d engine.Dialer
	hello := message.New(protocol.TypeHello, p.cfg.ID, protocol.HelloProxy, 0, nil).AppendHeader(nil)
	conn, _, err := d.Dial(p.cfg.Transport, p.cfg.ID.Addr(), p.cfg.Observer.Addr(), hello,
		admission.DefaultHelloTimeout)
	if err != nil {
		return fmt.Errorf("proxy: trunk to observer: %w", err)
	}
	l, err := p.cfg.Transport.Listen(p.cfg.ID.Addr())
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("proxy: listen: %w", err)
	}
	p.trunk = engine.NewLink(conn, trunkCap, &p.wg)
	p.wg.Add(2)
	go p.door.AcceptLoop(l, p.serveConn)
	go p.trunkReader()
	return nil
}

// Stop shuts the proxy down, closing the node links as well as the trunk
// so every relayed node observes the failure immediately and starts
// reconnecting instead of feeding reports into a dead relay.
func (p *Proxy) Stop() {
	p.once.Do(func() {
		close(p.done)
		p.door.Close()
		if p.trunk != nil {
			p.trunk.Close()
		}
		p.mu.Lock()
		p.stopping = true
		for _, link := range p.nodes {
			link.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
}

// serveConn takes over a node connection the door admitted and
// identified: it welcomes the node, relays its updates onto the trunk and
// registers the link for commands flowing back. The Welcome goes out
// before the link's writer starts, so a command relayed to the node
// cannot overtake it. A node that reconnects replaces its earlier link,
// which is closed.
func (p *Proxy) serveConn(conn net.Conn, node message.NodeID, _ uint32, tok *admission.Token) {
	if p.door.Welcome(conn) != nil {
		return
	}
	p.mu.Lock()
	if p.stopping {
		p.mu.Unlock()
		_ = conn.Close()
		return
	}
	link := engine.NewLink(conn, nodeCap, &p.wg)
	old := p.nodes[node]
	p.nodes[node] = link
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
	tok.Release()
	for {
		m, err := link.Read()
		if err != nil {
			p.mu.Lock()
			if p.nodes[node] == link {
				delete(p.nodes, node)
			}
			p.mu.Unlock()
			link.Close()
			return
		}
		if !p.trunk.Send(m) {
			m.Release() // trunk congested: shed updates, never block nodes
		}
	}
}

// trunkReader unwraps relay envelopes from the observer and delivers the
// inner command to the destination node.
func (p *Proxy) trunkReader() {
	defer p.wg.Done()
	for {
		m, err := p.trunk.Read()
		if err != nil {
			return
		}
		if m.Type() != protocol.TypeRelay {
			m.Release()
			continue
		}
		rl, err := protocol.DecodeRelay(m.Payload())
		if err != nil {
			m.Release()
			continue
		}
		inner, _, derr := message.Decode(rl.Inner)
		if derr != nil {
			m.Release()
			continue
		}
		// The inner payload aliases the envelope; clone for independent
		// lifetime, then drop the envelope.
		cmd := inner.Clone()
		m.Release()

		p.mu.Lock()
		link := p.nodes[rl.Dest]
		p.mu.Unlock()
		if link == nil || !link.Send(cmd) {
			cmd.Release()
		}
	}
}

// NodeCount reports how many node connections are currently relayed.
func (p *Proxy) NodeCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nodes)
}
