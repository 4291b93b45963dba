package engine

import (
	"net"
	"time"

	"repro/internal/vnet"
)

// Transport abstracts the substrate the engine runs on: real TCP for
// wide-area deployments, or the in-process virtual network for virtualized
// nodes (the paper deploys "from one to up to dozens of iOverlay nodes"
// per physical machine; vnet takes that to its limit).
type Transport interface {
	// Listen binds the node's publicized address.
	Listen(addr string) (net.Listener, error)
	// DialFrom opens a connection to addr. local is the dialing node's
	// publicized address; transports that cannot bind it (TCP) ignore it,
	// since the hello handshake carries the identity in-band. timeout
	// bounds connection establishment; zero means no bound.
	DialFrom(local, addr string, timeout time.Duration) (net.Conn, error)
}

// PacketTransport is the optional datagram extension of a Transport:
// engines configured with DatagramData bind a packet endpoint on their
// publicized address and move the data lane onto it, while the hello
// handshake and all control traffic stay on the reliable stream side.
type PacketTransport interface {
	// ListenPacket binds the node's datagram endpoint on its publicized
	// address — the same "ip:port" the stream listener uses; UDP and TCP
	// ports are separate namespaces, so both bind.
	ListenPacket(addr string) (net.PacketConn, error)
	// PacketAddr resolves a publicized "ip:port" address into the
	// net.Addr this transport's WriteTo accepts.
	PacketAddr(addr string) (net.Addr, error)
}

// TCP is the real-network transport.
type TCP struct{}

var _ Transport = TCP{}
var _ PacketTransport = TCP{}

// Listen binds a TCP listener.
func (TCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// DialFrom dials over TCP; the local address hint is ignored.
func (TCP) DialFrom(_, addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.Dial("tcp", addr)
}

// ListenPacket binds a UDP endpoint on the publicized address.
func (TCP) ListenPacket(addr string) (net.PacketConn, error) {
	return net.ListenPacket("udp", addr)
}

// PacketAddr resolves a publicized address for UDP writes.
func (TCP) PacketAddr(addr string) (net.Addr, error) {
	return net.ResolveUDPAddr("udp", addr)
}

// VNet adapts a virtual network to the Transport interface.
type VNet struct {
	Net *vnet.Network
}

var _ Transport = VNet{}
var _ PacketTransport = VNet{}

// Listen binds a virtual listener.
func (v VNet) Listen(addr string) (net.Listener, error) {
	return v.Net.Listen(addr)
}

// DialFrom dials through the virtual network, preserving the local
// address so traffic is attributable in tests. A virtual dial resolves (or
// is refused) without waiting on any remote party, so there is nothing
// for the timeout to bound; the Dialer's handshake deadline bounds link
// set-up on both transports.
func (v VNet) DialFrom(local, addr string, _ time.Duration) (net.Conn, error) {
	return v.Net.DialFrom(local, addr)
}

// ListenPacket binds a virtual datagram endpoint.
func (v VNet) ListenPacket(addr string) (net.PacketConn, error) {
	return v.Net.ListenPacket(addr)
}

// PacketAddr wraps a virtual address for datagram writes.
func (v VNet) PacketAddr(a string) (net.Addr, error) {
	return vnet.Addr(a), nil
}
