package proxy_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/vnet"
)

var (
	obsID   = message.MakeID("10.255.0.1", 9000)
	proxyID = message.MakeID("10.254.0.1", 9100)
)

// fakeObserver accepts the proxy trunk, answers its hello with Welcome and
// records received messages; it can also push relay envelopes back down
// the trunk.
type fakeObserver struct {
	net      *vnet.Network
	received chan *message.Msg
	trunk    chan interface {
		WriteMsg(*message.Msg) error
	}
}

type trunkConn struct {
	c interface {
		Write([]byte) (int, error)
	}
}

func (t trunkConn) WriteMsg(m *message.Msg) error {
	_, err := m.WriteTo(t.c)
	return err
}

func startFakeObserver(t *testing.T, n *vnet.Network) *fakeObserver {
	t.Helper()
	l, err := n.Listen(obsID.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fo := &fakeObserver{
		net:      n,
		received: make(chan *message.Msg, 256),
		trunk: make(chan interface {
			WriteMsg(*message.Msg) error
		}, 1),
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		hello, err := message.Read(conn, nil, 256)
		if err != nil || hello.Type() != protocol.TypeHello ||
			hello.App() != protocol.HelloProxy {
			t.Errorf("bad trunk hello: %v %v", hello, err)
			return
		}
		welcome := message.New(protocol.TypeWelcome, obsID, 0, 0, nil)
		if _, err := welcome.WriteTo(conn); err != nil {
			t.Errorf("write welcome: %v", err)
			return
		}
		fo.trunk <- trunkConn{c: conn}
		for {
			m, err := message.Read(conn, nil, message.DefaultMaxPayload)
			if err != nil {
				return
			}
			fo.received <- m
		}
	}()
	return fo
}

// fakeNode dials the proxy like an engine's observer link would: the
// hello, then the proxy's Welcome before anything else.
type fakeNode struct {
	id       message.NodeID
	conn     interface{ Close() error }
	w        interface{ Write([]byte) (int, error) }
	received chan *message.Msg
}

func startFakeNode(t *testing.T, n *vnet.Network, id message.NodeID) *fakeNode {
	t.Helper()
	conn, err := n.DialFrom(id.Addr(), proxyID.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := message.New(protocol.TypeHello, id, 0, 0, nil)
	if _, err := hello.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	welcome, err := message.Read(conn, nil, 256)
	if err != nil || welcome.Type() != protocol.TypeWelcome || welcome.Len() != 0 {
		t.Fatalf("reply to the node's hello = %v, %v; want a bare welcome", welcome, err)
	}
	fn := &fakeNode{id: id, conn: conn, w: conn, received: make(chan *message.Msg, 64)}
	go func() {
		for {
			m, err := message.Read(conn, nil, message.DefaultMaxPayload)
			if err != nil {
				return
			}
			fn.received <- m
		}
	}()
	return fn
}

func (fn *fakeNode) send(t *testing.T, m *message.Msg) {
	t.Helper()
	if _, err := m.WriteTo(fn.w); err != nil {
		t.Fatalf("node write: %v", err)
	}
}

func startProxy(t *testing.T, n *vnet.Network) *proxy.Proxy {
	t.Helper()
	p, err := proxy.New(proxy.Config{
		ID:        proxyID,
		Observer:  obsID,
		Transport: engine.VNet{Net: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func TestUpdatesRelayedUpstream(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	fo := startFakeObserver(t, n)
	startProxy(t, n)
	node := startFakeNode(t, n, message.MakeID("10.0.0.1", 7000))

	node.send(t, message.New(protocol.TypeBoot, node.id, 0, 0, nil))
	select {
	case m := <-fo.received:
		if m.Type() != protocol.TypeBoot || m.Sender() != node.id {
			t.Errorf("relayed = %v", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("boot not relayed to observer")
	}
}

func TestRelayEnvelopeRoutedToRightNode(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	fo := startFakeObserver(t, n)
	p := startProxy(t, n)
	a := startFakeNode(t, n, message.MakeID("10.0.0.1", 7000))
	b := startFakeNode(t, n, message.MakeID("10.0.0.2", 7000))

	deadline := time.Now().Add(3 * time.Second)
	for p.NodeCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if p.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", p.NodeCount())
	}

	trunk := <-fo.trunk
	inner := message.New(protocol.TypeCustom, obsID, 0, 0,
		protocol.Custom{Kind: 5}.Encode())
	var raw []byte
	raw = inner.AppendHeader(raw)
	raw = append(raw, inner.Payload()...)
	env := message.New(protocol.TypeRelay, obsID, 0, 0,
		protocol.Relay{Dest: b.id, Inner: raw}.Encode())
	if err := trunk.WriteMsg(env); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.received:
		if m.Type() != protocol.TypeCustom {
			t.Errorf("node B got %v", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("command not routed to node B")
	}
	select {
	case m := <-a.received:
		t.Errorf("command leaked to node A: %v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestRelayToUnknownNodeDropped(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	fo := startFakeObserver(t, n)
	startProxy(t, n)
	trunk := <-func() chan interface {
		WriteMsg(*message.Msg) error
	} {
		// Trunk is established during Start; wait for the hello to land.
		return fo.trunk
	}()
	inner := message.New(protocol.TypeCustom, obsID, 0, 0, nil)
	var raw []byte
	raw = inner.AppendHeader(raw)
	env := message.New(protocol.TypeRelay, obsID, 0, 0,
		protocol.Relay{Dest: message.MakeID("10.9.9.9", 1), Inner: raw}.Encode())
	if err := trunk.WriteMsg(env); err != nil {
		t.Fatal(err) // must not kill the proxy
	}
	// The proxy stays functional afterwards.
	node := startFakeNode(t, n, message.MakeID("10.0.0.1", 7000))
	node.send(t, message.New(protocol.TypeBoot, node.id, 0, 0, nil))
	select {
	case <-fo.received:
	case <-time.After(3 * time.Second):
		t.Fatal("proxy died after bad relay")
	}
}

func TestNodeReconnectReplacesRing(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	startFakeObserver(t, n)
	p := startProxy(t, n)
	id := message.MakeID("10.0.0.1", 7000)
	first := startFakeNode(t, n, id)
	deadline := time.Now().Add(3 * time.Second)
	for p.NodeCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	_ = first.conn.Close()
	second := startFakeNode(t, n, id)
	_ = second
	time.Sleep(100 * time.Millisecond)
	if got := p.NodeCount(); got != 1 {
		t.Errorf("NodeCount after reconnect = %d, want 1", got)
	}
}

func TestProxyStartFailsWithoutObserver(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	p, err := proxy.New(proxy.Config{
		ID:        proxyID,
		Observer:  obsID, // nothing listening
		Transport: engine.VNet{Net: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		p.Stop()
		t.Fatal("Start succeeded with no observer")
	}
}

// TestProxyStartFailsWhenObserverRefusesTrunk: an observer whose gate
// answers the trunk's hello with Busy has refused the trunk, and Start
// says so instead of leaving a dead trunk that sheds every relayed report.
func TestProxyStartFailsWhenObserverRefusesTrunk(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	l, err := n.Listen(obsID.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if hello, err := message.Read(conn, nil, 256); err == nil {
			hello.Release()
		}
		busy := message.New(protocol.TypeBusy, obsID, 0, 0,
			protocol.Busy{Reason: protocol.BusyHandshakes, RetryAfterNanos: int64(time.Second)}.Encode())
		_, _ = busy.WriteTo(conn)
	}()
	p, err := proxy.New(proxy.Config{ID: proxyID, Observer: obsID, Transport: engine.VNet{Net: n}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		p.Stop()
		t.Fatal("Start succeeded over a trunk the observer refused")
	}
}
