// Package algorithm provides the generic base that application-specific
// algorithms inherit from — the analogue of the paper's iAlgorithm class.
// It implements a default message handler for known observer and engine
// messages (bootstrap recording, source deployment and termination) and a
// library of basic utilities such as probabilistic dissemination
// (gossiping). Application algorithms embed Base and override Process,
// falling back to Base.Process for anything they do not handle — the
// paper's "default: use the default behavior from iAlgorithm".
package algorithm

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/protocol"
)

// Base is the root of the algorithm class hierarchy.
type Base struct {
	// API is the engine handle, valid after Attach.
	API engine.API
	// Known records the set of initial and discovered nodes, filled by
	// the default bootstrap handler.
	Known *KnownHosts
	// Rng is a deterministic per-node random source (seeded from the
	// node identity) for randomized protocol decisions. Its source is
	// seeded on the first draw, so an algorithm that never draws does not
	// pay for seeding one.
	Rng *rand.Rand
}

var _ engine.Algorithm = (*Base)(nil)

// Attach stores the engine handle and initializes utility state.
func (b *Base) Attach(api engine.API) {
	b.API = api
	b.Known = NewKnownHosts()
	id := api.ID()
	b.Rng = rand.New(&lazySource{seed: int64(id.IP)<<32 | int64(id.Port)})
}

// lazySource is a math/rand Source64 that builds rand.NewSource(seed) on
// its first draw and delegates to it, so it yields that source's stream
// exactly. Building the source costs ≈ 14 µs and ≈ 5 KiB — most of an
// idle forwarder's set-up — and many algorithms never draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) seeded() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.seeded().Int63() }
func (s *lazySource) Uint64() uint64  { return s.seeded().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// Process implements the default handlers for all known message types, so
// concrete algorithms only need to handle the types they care about — the
// only type an algorithm must handle itself is data.
func (b *Base) Process(m *message.Msg) engine.Verdict {
	switch m.Type() {
	case protocol.TypeBootReply:
		if br, err := protocol.DecodeBootReply(m.Payload()); err == nil {
			for _, h := range br.Hosts {
				if h != b.API.ID() {
					b.Known.Add(h)
				}
			}
		}
	case protocol.TypeDeploy:
		if d, err := protocol.DecodeDeploy(m.Payload()); err == nil {
			b.API.StartSource(d.App, d.Rate, int(d.MsgSize))
		}
	case protocol.TypeTerminateApp:
		if d, err := protocol.DecodeDeploy(m.Payload()); err == nil {
			b.API.StopSource(d.App)
		}
	case protocol.TypeLinkUp:
		if le, err := protocol.DecodeLinkEvent(m.Payload()); err == nil {
			b.Known.Add(le.Peer)
		}
	default:
		// Data, throughput reports, ticks, link-downs, broken sources and
		// unknown protocol types are no-ops by default.
	}
	return engine.Done
}

// Disseminate sends m to each target independently with probability p —
// the gossiping primitive the paper's iAlgorithm provides. It consumes
// the caller's construction reference and reports how many copies were
// sent.
func (b *Base) Disseminate(m *message.Msg, targets []message.NodeID, p float64) int {
	var chosen []message.NodeID
	for _, t := range targets {
		if t == b.API.ID() {
			continue
		}
		if p >= 1 || b.Rng.Float64() < p {
			chosen = append(chosen, t)
		}
	}
	b.API.SendNew(m, chosen...)
	return len(chosen)
}
