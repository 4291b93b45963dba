package engine

import (
	"time"

	"repro/internal/message"
	"repro/internal/trace"
)

// Verdict is an algorithm's answer to Process, telling the engine who owns
// the message next.
type Verdict int

// Verdicts.
const (
	// Done returns ownership to the engine, which releases its delivery
	// reference. Any sends issued during Process hold their own
	// references, so forwarding verbatim remains zero-copy.
	Done Verdict = iota + 1
	// Hold transfers ownership to the algorithm: the engine keeps the
	// message alive and the algorithm buffers it, typically to merge or
	// code it with messages from other incoming connections (the paper's
	// n-to-m mapping). The algorithm must eventually call API.Finish.
	Hold
)

// Algorithm is the application-specific protocol plugged into the engine
// — the one interface an iOverlay developer implements. Process is
// guaranteed to execute one call at a time, each call happening-after the
// one before it: every call is made under the engine's turn token, by the
// engine goroutine or by a receiver goroutine (a stream link's, or the
// packet reader) that took the token to switch its own batch. Implementations therefore never need thread-safe
// data structures — but must not assume every call arrives on the same
// goroutine (no goroutine-local state, no locks held across calls).
type Algorithm interface {
	// Attach hands the algorithm its engine API before the engine starts.
	Attach(api API)
	// Process handles one message: application data to consume or
	// forward, a protocol message from a peer's algorithm, or an
	// engine-produced notification (throughput reports, link events,
	// broken sources, ticks).
	Process(m *message.Msg) Verdict
}

// API is the engine surface exposed to algorithms. Send is the only call
// most algorithms need, as in the paper; the rest are the optional utility
// and measurement hooks iOverlay documents (timers, QoS measurements,
// tracing, source control). All methods must be called from within a turn
// — from Process, or from a function passed to Engine.Do — which is where
// the turn token is held, except where noted.
type API interface {
	// ID reports the local node identity.
	ID() message.NodeID

	// Send forwards m to dest, retaining a reference for the transfer.
	// It never fails synchronously: connection setup, retries when the
	// destination's sender buffer is full, and failure notifications are
	// all handled by the engine, transparently.
	Send(m *message.Msg, dest message.NodeID)

	// SendNew sends an algorithm-constructed message to the destinations
	// and releases the construction reference, so algorithms never
	// destruct messages themselves.
	SendNew(m *message.Msg, dests ...message.NodeID)

	// Finish releases a message previously kept with the Hold verdict.
	Finish(m *message.Msg)

	// NewMsg allocates a message from the process-wide buffer pool with the
	// local node stamped as original sender.
	NewMsg(typ message.Type, app, seq uint32, payloadLen int) *message.Msg

	// NewControl builds a small control/protocol message carrying the
	// given payload bytes.
	NewControl(typ message.Type, app uint32, payload []byte) *message.Msg

	// After schedules a Tick message of the given kind to be delivered to
	// Process after d; the single-threaded reactive model's substitute
	// for timers.
	After(d time.Duration, kind uint32)

	// StartSource deploys an application data source on this node:
	// generated data messages of size msgSize are injected into the
	// switch at rate bytes/sec (rate <= 0 sends back-to-back, as fast as
	// buffers allow).
	StartSource(app uint32, rate int64, msgSize int)

	// StopSource terminates a locally deployed source.
	StopSource(app uint32)

	// Upstreams lists the nodes with active incoming links.
	Upstreams() []message.NodeID

	// Downstreams lists the nodes with active outgoing links.
	Downstreams() []message.NodeID

	// LinkRate reports the measured throughput (bytes/sec) of the link to
	// (down=true) or from (down=false) peer; zero when no such link.
	LinkRate(peer message.NodeID, down bool) float64

	// Ping measures round-trip latency to dest; the result arrives as a
	// TypeLatency message.
	Ping(dest message.NodeID)

	// MeasureBandwidth probes the available bandwidth to dest with a
	// short back-to-back burst; the peer's observed rate arrives as a
	// TypeBandwidthEst message.
	MeasureBandwidth(dest message.NodeID)

	// CloseLink gracefully tears down the outgoing link to peer.
	CloseLink(peer message.NodeID)

	// SetReceiverWeight tunes the weighted-round-robin share of the
	// incoming link from peer (default 1).
	SetReceiverWeight(peer message.NodeID, weight int)

	// Observer reports the observer identity (zero when standalone).
	Observer() message.NodeID

	// Trace sends a trace record to the observer's central log; safe to
	// call even when no observer is configured.
	Trace(format string, args ...any)

	// Note records a structured event in the node's flight recorder for
	// decisions only the algorithm can see (e.g. a reparent). Unlike
	// Trace it is lock-free, allocation-free and safe from any
	// goroutine, so it may be called from the data path.
	Note(kind trace.Kind, peer message.NodeID, app uint32, value int64)
}
