// Package trace implements the per-engine flight recorder: a fixed-size
// ring of typed event records that hot paths append to with one atomic
// fetch-add. The ring is allocated in chunks of 64 records, each the first
// time the cursor reaches it, so a recorder costs what its events have
// filled and at most one allocation per chunk for its whole life; once
// every chunk exists, Emit allocates nothing. The recorder answers the
// question the counters cannot — *when* did the engine shed, bypass or
// reparent, and in what order relative to its peers — without perturbing
// the data path it is observing.
//
// Concurrency model: any goroutine may Emit concurrently. The cursor is
// an atomic counter; each Emit claims a unique slot by fetch-add, installs
// the slot's chunk by compare-and-swap if nobody has yet (a loser adopts
// the winner's), writes the payload fields, and publishes the record by
// storing its sequence number last (with release ordering via atomic
// store). Snapshot skips chunks that were never allocated and reads
// each slot's sequence before and after copying the payload and discards
// records that were torn by a concurrent wrap-around overwrite. There are
// no locks anywhere, so Emit can never block the data path, and the
// only loss mode is overwrite of the oldest records — exactly what a
// flight recorder wants.
//
// Timestamps are absolute unix nanoseconds so that recorders from
// different nodes can be merged into one cross-node timeline without a
// per-node epoch exchange.
package trace

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/message"
)

// Kind labels one event record. The taxonomy covers the engine decisions
// that matter for diagnosing the churn and overload experiments.
type Kind uint8

const (
	// KindSwitch records one switch quantum: Value is the number of
	// messages moved in the batch, Peer the destination (zero for local
	// delivery), App the application of the first message.
	KindSwitch Kind = iota + 1
	// KindShed records an outgoing message refused at the sender for
	// exceeding the datagram fragment budget: Value is its wire bytes,
	// Peer the destination.
	KindShed
	// KindCtrlBypass records a control message overtaking queued data
	// mid-batch in a shaped sender: Value is the data backlog (messages)
	// it bypassed.
	KindCtrlBypass
	// KindLinkUp records a link becoming usable: Value 1 for an inbound
	// (upstream) link, 0 for an outbound (downstream) link.
	KindLinkUp
	// KindLinkDown records a link tearing down; Value as for KindLinkUp.
	KindLinkDown
	// KindBackoff records one dial retry backoff: Value is the delay in
	// nanoseconds before the next attempt.
	KindBackoff
	// KindReparent records an algorithm-initiated topology repair:
	// Peer is the new parent (or zero when detaching), Value is
	// algorithm-specific context (e.g. the subtree size moved).
	KindReparent
	// KindProbeRTT records a completed ping: Value is the measured RTT
	// in nanoseconds, Peer the probed node.
	KindProbeRTT
	// KindProbeBW records a completed bandwidth probe: Value is the
	// estimated rate in bytes/sec, Peer the probed node.
	KindProbeBW
	// KindObsFailover records an engine switching observers: Peer is the
	// observer now targeted, Value its index in the configured failover
	// list.
	KindObsFailover
	// KindObsSync records one absorbed federation sync round on an
	// observer: Peer is the sync's origin observer, Value the number of
	// entries whose merge changed local state.
	KindObsSync
	// KindAccept records one inbound admission decision on a listener:
	// Peer is the remote end (zero when the connection died before a
	// hello identified it), Value an admission.Decision code — admitted,
	// busy-shed, rate-limited, greylisted, bad hello,
	// handshake timeout, or an Accept retry after a transient error.
	KindAccept
)

// KindName returns a short stable label for a kind, suitable for
// timeline rendering and JSON export.
func KindName(k Kind) string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindShed:
		return "shed"
	case KindCtrlBypass:
		return "ctrl-bypass"
	case KindLinkUp:
		return "link-up"
	case KindLinkDown:
		return "link-down"
	case KindBackoff:
		return "backoff"
	case KindReparent:
		return "reparent"
	case KindProbeRTT:
		return "probe-rtt"
	case KindProbeBW:
		return "probe-bw"
	case KindObsFailover:
		return "obs-failover"
	case KindObsSync:
		return "obs-sync"
	case KindAccept:
		return "accept"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Event is one recorded decision. Records are fixed-size and contain no
// pointers, so a snapshot is a flat copy.
type Event struct {
	Seq   uint64         // 1-based global order within this recorder
	Nanos int64          // absolute unix nanoseconds
	Kind  Kind           //
	Peer  message.NodeID // peer involved, zero when not applicable
	App   uint32         // application id, zero when not applicable
	Value int64          // kind-specific magnitude (see Kind docs)
}

// slot is one ring cell. seq doubles as the publication flag: it is
// zeroed before the payload is rewritten and stored (atomically) last,
// so a reader that observes the same non-zero seq before and after
// copying the payload has a consistent record. The payload words are
// themselves atomic because two writers a full ring apart can land on
// the same slot concurrently; per-word atomicity keeps that overwrite
// race benign (and race-detector-clean) while the seq protocol rejects
// the mixed record it may produce.
type slot struct {
	seq     atomic.Uint64
	nanos   atomic.Int64
	kindApp atomic.Uint64 // Kind<<32 | App
	peer    atomic.Uint64 // IP<<32 | Port
	value   atomic.Int64
}

// chunkSlots is how many ring slots one chunk holds: 2.5 KiB of slots.
const chunkSlots = 64

// chunk is one allocation of the ring. A ring smaller than a chunk uses
// the first slots of its only one.
type chunk [chunkSlots]slot

// Recorder is the flight recorder: a ring of Cap slots, held as chunks
// that are allocated on first use, so an idle node's recorder is a table of
// nil pointers. The zero value and the nil pointer are both valid
// "disabled" recorders: Emit is a no-op and Snapshot returns nothing, so
// call sites need no guards.
type Recorder struct {
	chunks []atomic.Pointer[chunk]
	mask   uint64 // ring capacity - 1
	cursor atomic.Uint64
}

// New returns a recorder holding the most recent capacity events.
// Capacity is rounded up to a power of two; values < 2 are rounded to 2.
// No slot is allocated until an event reaches it.
func New(capacity int) *Recorder {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Recorder{
		chunks: make([]atomic.Pointer[chunk], (n+chunkSlots-1)/chunkSlots),
		mask:   uint64(n - 1),
	}
}

// Cap returns the ring capacity (0 for a disabled recorder).
func (r *Recorder) Cap() int {
	if r == nil || len(r.chunks) == 0 {
		return 0
	}
	return int(r.mask + 1)
}

// slotAt returns the ring slot for a 1-based sequence number, allocating
// its chunk if no Emit has yet. Of two Emits racing to allocate one chunk,
// the CAS picks the winner's and the loser writes into that.
func (r *Recorder) slotAt(seq uint64) *slot {
	i := (seq - 1) & r.mask
	p := &r.chunks[i/chunkSlots]
	c := p.Load()
	if c == nil {
		p.CompareAndSwap(nil, new(chunk))
		c = p.Load()
	}
	return &c[i%chunkSlots]
}

// Cursor returns the sequence number of the most recently claimed slot.
func (r *Recorder) Cursor() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Emit appends one event. It never blocks, allocates only the first time
// the ring reaches a chunk, and is safe from any goroutine. On a nil or
// zero recorder it is a no-op.
func (r *Recorder) Emit(kind Kind, peer message.NodeID, app uint32, value int64) {
	if r == nil || len(r.chunks) == 0 {
		return
	}
	seq := r.cursor.Add(1)
	s := r.slotAt(seq)
	s.seq.Store(0) // invalidate while the payload is rewritten
	s.nanos.Store(time.Now().UnixNano())
	s.kindApp.Store(uint64(kind)<<32 | uint64(app))
	s.peer.Store(uint64(peer.IP)<<32 | uint64(peer.Port))
	s.value.Store(value)
	s.seq.Store(seq) // publish
}

// Snapshot copies out every published record still in the ring, oldest
// first. Records torn by a concurrent wrap-around are skipped. It is
// safe from any goroutine and allocates only the returned slice.
func (r *Recorder) Snapshot() []Event {
	return r.SnapshotSince(0)
}

// SnapshotSince returns the published records with Seq > since, oldest
// first. Use it to ship incremental batches: pass the highest Seq seen
// so far and only newer events come back. It allocates no chunk: a slot
// whose chunk no Emit has reached yet holds nothing to copy.
func (r *Recorder) SnapshotSince(since uint64) []Event {
	if r == nil || len(r.chunks) == 0 {
		return nil
	}
	cur := r.cursor.Load()
	if cur == 0 || cur <= since {
		return nil
	}
	size := r.mask + 1
	lo := since + 1
	if cur > size && cur-size+1 > lo {
		lo = cur - size + 1
	}
	out := make([]Event, 0, cur-lo+1)
	for seq := lo; seq <= cur; seq++ {
		i := (seq - 1) & r.mask
		c := r.chunks[i/chunkSlots].Load()
		if c == nil {
			continue // claimed, but its Emit has not allocated the chunk yet
		}
		s := &c[i%chunkSlots]
		got := s.seq.Load()
		if got != seq {
			continue // overwritten or not yet published
		}
		kindApp := s.kindApp.Load()
		peer := s.peer.Load()
		ev := Event{
			Seq:   seq,
			Nanos: s.nanos.Load(),
			Kind:  Kind(kindApp >> 32),
			App:   uint32(kindApp),
			Peer:  message.NodeID{IP: uint32(peer >> 32), Port: uint32(peer)},
			Value: s.value.Load(),
		}
		if s.seq.Load() != seq {
			continue // torn by a concurrent overwrite mid-copy
		}
		out = append(out, ev)
	}
	return out
}
