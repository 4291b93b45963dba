// Package ioverlay is a Go reproduction of iOverlay, the lightweight
// middleware infrastructure for overlay application implementations
// (Li, Guo, Wang — Middleware 2004).
//
// iOverlay separates a distributed overlay application into three layers:
// the message switching engine (provided here by this library), the
// application-specific algorithm (implemented by you against the
// Algorithm interface), and the application producing and consuming data.
// The engine handles everything the paper calls mundane or challenging:
// multi-threaded message switching, persistent connections, failure
// detection and domino teardown, QoS measurement, bandwidth emulation,
// bootstrap and monitoring through a central observer, and virtualization
// of many overlay nodes in one process.
//
// # Quick start
//
// Implement an algorithm by embedding Base and handling the data type:
//
//	type Echo struct{ ioverlay.Base }
//
//	func (e *Echo) Process(m *ioverlay.Msg) ioverlay.Verdict {
//		if m.IsData() {
//			// consume, or forward with e.API.Send(m, dest)
//			return ioverlay.Done
//		}
//		return e.Base.Process(m)
//	}
//
// Then boot a node:
//
//	eng, err := ioverlay.NewEngine(ioverlay.Config{
//		ID:        ioverlay.MustParseID("10.0.0.1:7000"),
//		Transport: ioverlay.TCPTransport(),
//		Algorithm: &Echo{},
//	})
//
// For laptop-scale experiments, use a virtual network instead of TCP:
//
//	net := ioverlay.NewVirtualNetwork()
//	cfg.Transport = ioverlay.VirtualTransport(net)
//
// The examples/ directory contains five runnable applications, and
// cmd/ibench regenerates every table and figure of the paper.
package ioverlay

import (
	"repro/internal/admission"
	"repro/internal/algorithm"
	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/observer"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/vnet"
)

// Core message types.
type (
	// Msg is an application-layer message with the paper's fixed 24-byte
	// header.
	Msg = message.Msg
	// MsgType identifies a message's kind; values at or above
	// FirstDataType are application data.
	MsgType = message.Type
	// NodeID identifies an overlay node by IPv4 address and port.
	NodeID = message.NodeID
)

// Engine types.
type (
	// Engine is one iOverlay node: the application-layer message switch.
	Engine = engine.Engine
	// Config parameterizes an Engine.
	Config = engine.Config
	// Algorithm is the application-specific protocol interface — the one
	// thing an iOverlay developer implements.
	Algorithm = engine.Algorithm
	// API is the engine surface exposed to algorithms; Send is the only
	// call most algorithms need.
	API = engine.API
	// Verdict is an algorithm's answer to Process.
	Verdict = engine.Verdict
	// Transport supplies connectivity (TCP or virtual).
	Transport = engine.Transport
	// AdmissionConfig tunes a listener's admission gate: Config.Admission
	// on an engine, ObserverConfig.Admission on an observer.
	AdmissionConfig = admission.Config
)

// Algorithm-support types.
type (
	// Base is the iAlgorithm analogue: default handlers plus utilities
	// (KnownHosts, probabilistic Disseminate). Embed it in algorithms.
	Base = algorithm.Base
	// KnownHosts is the local membership view.
	KnownHosts = algorithm.KnownHosts
)

// Monitoring types.
type (
	// Observer is the centralized bootstrap/monitoring/control facility.
	Observer = observer.Observer
	// ObserverConfig parameterizes an Observer.
	ObserverConfig = observer.Config
	// Proxy relays many nodes' observer traffic over one connection
	// through a firewall.
	Proxy = proxy.Proxy
	// ProxyConfig parameterizes a Proxy.
	ProxyConfig = proxy.Config
	// Report is a node's status update: buffer lengths, link lists, QoS
	// measurements.
	Report = protocol.Report
	// SetBandwidth is the runtime bandwidth-emulation command.
	SetBandwidth = protocol.SetBandwidth
	// VirtualNetwork is an in-process network for virtualized nodes.
	VirtualNetwork = vnet.Network
)

// Verdicts.
const (
	// Done returns message ownership to the engine.
	Done = engine.Done
	// Hold transfers ownership to the algorithm for n-to-m processing.
	Hold = engine.Hold
)

// FirstDataType is the first message type treated as application data.
const FirstDataType = message.FirstDataType

// Bandwidth emulation categories for SetBandwidth.
const (
	BandwidthTotal = protocol.BandwidthTotal
	BandwidthUp    = protocol.BandwidthUp
	BandwidthDown  = protocol.BandwidthDown
	BandwidthLink  = protocol.BandwidthLink
)

// NewEngine constructs an engine; call Start to run it.
func NewEngine(cfg Config) (*Engine, error) { return engine.New(cfg) }

// NewObserver constructs the monitoring facility.
func NewObserver(cfg ObserverConfig) (*Observer, error) { return observer.New(cfg) }

// NewProxy constructs an observer relay.
func NewProxy(cfg ProxyConfig) (*Proxy, error) { return proxy.New(cfg) }

// NewVirtualNetwork builds an in-process network; pass it to
// VirtualTransport to run virtualized nodes without sockets.
func NewVirtualNetwork() *VirtualNetwork { return vnet.New() }

// TCPTransport returns the real-network transport.
func TCPTransport() Transport { return engine.TCP{} }

// VirtualTransport adapts a virtual network to the engine.
func VirtualTransport(n *VirtualNetwork) Transport { return engine.VNet{Net: n} }

// NewMsg constructs a message; see Config and API for pooled variants.
func NewMsg(typ MsgType, sender NodeID, app, seq uint32, payload []byte) *Msg {
	return message.New(typ, sender, app, seq, payload)
}

// ParseID parses "a.b.c.d:port" into a NodeID.
func ParseID(s string) (NodeID, error) { return message.ParseID(s) }

// MustParseID is ParseID panicking on error; for literals.
func MustParseID(s string) NodeID {
	id, err := message.ParseID(s)
	if err != nil {
		panic(err)
	}
	return id
}
