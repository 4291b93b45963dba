package vnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Datagram endpoints: the virtual network's UDP analogue. A PacketConn
// binds an address in a namespace separate from the stream listeners
// (the way UDP and TCP ports coexist on one host), and WriteTo delivers
// whole packets with genuine datagram semantics — a packet to a missing
// or partitioned destination is silently black-holed, a full receive
// queue drops the newest arrival, and per-pair seeded faults can drop,
// duplicate, or reorder packets without the connection noticing.

// DefaultDgramInbox is the per-endpoint receive queue, in packets; an
// arrival at a full queue is dropped, like a full kernel UDP buffer.
// Sized like one: ~2.8 MB at a 1400-byte MTU, enough slack for a reader
// stalled a couple hundred milliseconds behind a fast sender.
const DefaultDgramInbox = 2048

// dgramSpec is the fault profile of one link's datagram traffic: each
// packet is independently dropped, duplicated, or held back one packet
// (delivered after its successor) with the given probabilities.
type dgramSpec struct {
	drop, dup, reorder float64
}

// heldDgram is a packet held back by reorder fault injection; it is
// released when the next packet on the pair overtakes it, or by a short
// timer when no successor shows up.
type heldDgram struct {
	to    *PacketConn
	pkt   dgram
	timer *time.Timer
}

// Addr wraps a virtual address string in the net.Addr the network's
// datagram endpoints accept in WriteTo.
func Addr(s string) net.Addr { return addr(s) }

// dgram is one queued packet. data is a view into its batch's pooled
// buffer; buf carries the reference for release on consumption. from is
// the sender's pre-boxed address — boxed once at bind time, not per
// packet.
type dgram struct {
	from net.Addr
	data []byte
	buf  *dgramBuf
}

// dgramBuf is the pooled backing store of one delivered batch. Every
// queued dgram holds one reference; the buffer returns to the pool when
// the last packet is consumed (read) or dropped, so a steady flood
// recycles a handful of arenas instead of allocating per batch — the
// datagram counterpart of the stream pipe reusing its ring.
type dgramBuf struct {
	arena   []byte
	entries []dgram
	refs    atomic.Int32
}

var dgramBufPool = sync.Pool{New: func() any { return new(dgramBuf) }}

func getDgramBuf(size, count int) *dgramBuf {
	b := dgramBufPool.Get().(*dgramBuf)
	if cap(b.arena) < size {
		b.arena = make([]byte, 0, size)
	}
	if cap(b.entries) < count {
		b.entries = make([]dgram, 0, count)
	}
	b.arena = b.arena[:0]
	b.entries = b.entries[:0]
	return b
}

// release drops n references; the last one returns the buffer to the
// pool. Packets discarded at close time simply never release — the
// buffer falls to the garbage collector instead, which is correct just
// slower, and close is not a hot path.
func (b *dgramBuf) release(n int32) {
	if b != nil && b.refs.Add(-n) == 0 {
		dgramBufPool.Put(b)
	}
}

// Release drops one reference; exported so a borrowed packet's backing
// buffer can travel as a generic refcounted owner (see Dgram.Owner).
func (b *dgramBuf) Release() { b.release(1) }

// PacketConn is a bound datagram endpoint. It satisfies net.PacketConn.
//
// The inbox carries batches: a WriteToBatch sender hands over all its
// packets in one channel operation, the way recvmmsg drains a socket
// buffer in one syscall. queued counts buffered packets (channel plus
// the reader-side remainder) and enforces the DefaultDgramInbox bound;
// a reservation against it is taken before the channel send, so the
// send itself never blocks — at one packet per batch minimum, the
// channel can never hold more batches than the packet bound.
type PacketConn struct {
	net    *Network
	local  string
	localA net.Addr // boxed once; every queued packet shares it as from
	inbox  chan []dgram
	queued atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	dropsFull atomic.Int64

	mu           sync.Mutex
	readDeadline time.Time
	// pending holds the unread tails of batches taken from inbox, consumed
	// from head on. It is reset to [:0] when it drains, so a steady reader
	// reuses one backing array instead of walking its capacity away.
	pending []dgram
	head    int
}

var _ net.PacketConn = (*PacketConn)(nil)

// ListenPacket binds a datagram endpoint to address. The address must be
// free among packet endpoints; a stream listener on the same address is
// unrelated, as with UDP and TCP ports on a real host.
func (n *Network) ListenPacket(address string) (net.PacketConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetworkDown
	}
	if _, ok := n.packets[address]; ok {
		return nil, fmt.Errorf("%w: %s (datagram)", ErrAddrInUse, address)
	}
	// Rebinding after a crash is a restart, as with Listen.
	delete(n.crashed, address)
	p := &PacketConn{
		net:    n,
		local:  address,
		localA: addr(address),
		inbox:  make(chan []dgram, DefaultDgramInbox),
		done:   make(chan struct{}),
	}
	n.packets[address] = p
	return p, nil
}

// DgramFaults attaches a seeded fault profile to the datagram traffic
// between a and b (both directions): each packet is dropped with
// probability drop, duplicated with probability dup, and held back to
// arrive after its successor with probability reorder. The profile
// applies until Heal.
func (n *Network) DgramFaults(a, b string, drop, dup, reorder float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dgram[pairOf(a, b)] = dgramSpec{drop: drop, dup: dup, reorder: reorder}
}

// roll samples the network's seeded fault source once.
func (n *Network) roll(prob float64) bool {
	if prob <= 0 {
		return false
	}
	n.rngMu.Lock()
	v := n.rng.Float64()
	n.rngMu.Unlock()
	return v < prob
}

// WriteTo sends one packet to a bound datagram endpoint. Datagram
// semantics throughout: an unreachable destination — unbound address,
// crashed node, cut or partitioned link — is a silent black hole (the
// write succeeds, the packet vanishes), and only a closed endpoint or a
// closed network reports an error.
func (p *PacketConn) WriteTo(b []byte, to net.Addr) (int, error) {
	bufs := [1][]byte{b}
	if _, err := p.writeBatch(bufs[:], to); err != nil {
		return 0, err
	}
	return len(b), nil
}

// WriteToBatch sends a batch of packets to one destination — the vnet
// analogue of sendmmsg. The whole batch shares a single routing
// decision, one backing allocation for the queued bytes, and one inbox
// handoff at the receiver; faults still apply packet by packet. Like
// WriteTo, unreachable destinations black-hole silently: the count
// returned is how many packets the caller handed over, not how many
// survived.
func (p *PacketConn) WriteToBatch(bufs [][]byte, to net.Addr) (int, error) {
	return p.writeBatch(bufs, to)
}

func (p *PacketConn) writeBatch(bufs [][]byte, to net.Addr) (int, error) {
	select {
	case <-p.done:
		return 0, net.ErrClosed
	default:
	}
	dest := to.String()
	n := p.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, ErrNetworkDown
	}
	target := n.packets[dest]
	blocked := n.blockedLocked(p.local, dest)
	spec := n.dgram[pairOf(p.local, dest)]
	n.mu.Unlock()
	if target == nil || blocked {
		return len(bufs), nil
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	// The caller reuses its buffers; queued packets own their bytes. One
	// pooled arena backs the whole batch, so a steady flood recycles a
	// handful of buffers instead of allocating per packet or per batch.
	buf := getDgramBuf(total, len(bufs))
	held := 0
	key := pairOf(p.local, dest)
	for _, b := range bufs {
		if n.roll(spec.drop) {
			continue
		}
		off := len(buf.arena)
		buf.arena = append(buf.arena, b...)
		d := dgram{from: p.localA, data: buf.arena[off:len(buf.arena):len(buf.arena)], buf: buf}
		copies := 1
		if n.roll(spec.dup) {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			if n.roll(spec.reorder) && n.holdDgram(key, target, d) {
				held++
				continue
			}
			buf.entries = append(buf.entries, d)
		}
	}
	batch := buf.entries
	// Every queued packet (delivered or held back) carries one reference;
	// the count must be in place before the first consumer can release.
	if refs := len(batch) + held; refs > 0 {
		buf.refs.Store(int32(refs))
	}
	if len(batch) > 0 {
		target.deliverBatch(batch)
		n.releaseHeld(key)
	}
	return len(bufs), nil
}

// holdDgram stashes a packet for reorder injection, reporting false when
// another packet is already held on the pair (at most one outstanding).
// A short timer releases the packet even if no successor ever overtakes
// it, so a reordered packet is late, never lost.
func (n *Network) holdDgram(key pairKey, to *PacketConn, pkt dgram) bool {
	n.mu.Lock()
	if _, busy := n.dgramHeld[key]; busy {
		n.mu.Unlock()
		return false
	}
	h := &heldDgram{to: to, pkt: pkt}
	h.timer = time.AfterFunc(5*time.Millisecond, func() { n.releaseHeld(key) })
	n.dgramHeld[key] = h
	n.mu.Unlock()
	return true
}

// releaseHeld delivers the packet held on key, if any.
func (n *Network) releaseHeld(key pairKey) {
	n.mu.Lock()
	h := n.dgramHeld[key]
	delete(n.dgramHeld, key)
	n.mu.Unlock()
	if h == nil {
		return
	}
	h.timer.Stop()
	h.to.deliverBatch([]dgram{h.pkt})
}

// deliverBatch queues a batch, dropping whatever exceeds the endpoint's
// packet bound or arrives after close — exactly what a kernel does to a
// UDP datagram nobody is reading fast enough. The packet reservation is
// taken against queued before the channel send, which therefore never
// blocks (see the PacketConn doc).
func (p *PacketConn) deliverBatch(batch []dgram) {
	select {
	case <-p.done:
		releaseAll(batch)
		return
	default:
	}
	for {
		q := p.queued.Load()
		room := int64(DefaultDgramInbox) - q
		if room <= 0 {
			p.dropsFull.Add(int64(len(batch)))
			releaseAll(batch)
			return
		}
		take := int64(len(batch))
		if take > room {
			take = room
		}
		if p.queued.CompareAndSwap(q, q+take) {
			if int(take) < len(batch) {
				p.dropsFull.Add(int64(len(batch)) - take)
				releaseAll(batch[take:])
				batch = batch[:take]
			}
			break
		}
	}
	select {
	case p.inbox <- batch:
	default:
		// Unreachable while the reservation invariant holds; shedding
		// beats blocking the writer if it is ever violated.
		p.queued.Add(-int64(len(batch)))
		p.dropsFull.Add(int64(len(batch)))
		releaseAll(batch)
	}
}

// releaseAll drops the buffer references of every packet in batch.
func releaseAll(batch []dgram) {
	for i := range batch {
		batch[i].buf.release(1)
	}
}

// Dgram is a borrowed view of one queued packet: Data aliases the
// endpoint's pooled buffer and stays valid only until Release. Readers
// that copy or fully decode the packet before their next read can take
// this zero-copy path instead of ReadFrom's copy-out.
type Dgram struct {
	Data []byte
	From net.Addr
	buf  *dgramBuf
}

// Release retires the packet: its buffer reference is dropped and Data
// must not be touched again.
func (d Dgram) Release() { d.buf.release(1) }

// Owner exposes the packet's refcounted backing buffer; calling its
// Release once is equivalent to releasing the Dgram. A zero-copy reader
// hands it to a consumer that outlives the read loop (message.FromOwned)
// instead of copying Data out.
func (d Dgram) Owner() interface{ Release() } { return d.buf }

// TryReadDgrams pops up to len(dst) queued packets without blocking or
// copying, returning how many it filled — the recvmmsg-shaped
// counterpart to WriteToBatch: a reader woken by one packet drains
// whatever else has already arrived with one lock round and one
// reservation update for the burst, not one per packet.
func (p *PacketConn) TryReadDgrams(dst []Dgram) int {
	n := 0
	p.mu.Lock()
	for n < len(dst) && p.head < len(p.pending) {
		pkt := p.popPending()
		dst[n] = Dgram{Data: pkt.data, From: pkt.from, buf: pkt.buf}
		n++
	}
	for n < len(dst) {
		var batch []dgram
		select {
		case batch = <-p.inbox:
		default:
		}
		if batch == nil {
			break
		}
		for i, pkt := range batch {
			if n == len(dst) {
				p.pending = append(p.pending, batch[i:]...)
				break
			}
			dst[n] = Dgram{Data: pkt.data, From: pkt.from, buf: pkt.buf}
			n++
		}
	}
	p.mu.Unlock()
	if n > 0 {
		p.queued.Add(-int64(n))
	}
	return n
}

// popPending takes the oldest unread packet; the caller holds p.mu and has
// seen one queued. The slot is cleared so no consumed buffer stays pinned.
func (p *PacketConn) popPending() dgram {
	pkt := p.pending[p.head]
	p.pending[p.head] = dgram{}
	p.head++
	if p.head == len(p.pending) {
		p.pending, p.head = p.pending[:0], 0
	}
	return pkt
}

// consume copies one packet out to the caller and retires it: the
// inbox reservation is returned and the packet's buffer reference
// dropped (the copy makes the caller's view independent of the pool).
func (p *PacketConn) consume(pkt dgram, b []byte) (int, net.Addr) {
	n := copy(b, pkt.data)
	p.queued.Add(-1)
	pkt.buf.release(1)
	return n, pkt.from
}

// stashRest queues the unread tail of a batch for the next read and
// returns the head packet.
func (p *PacketConn) stashRest(batch []dgram) dgram {
	pkt := batch[0]
	if rest := batch[1:]; len(rest) > 0 {
		p.mu.Lock()
		p.pending = append(p.pending, rest...)
		p.mu.Unlock()
	}
	return pkt
}

// ReadFrom waits for the next packet, honoring the read deadline. A
// packet larger than b is truncated, per datagram socket semantics.
func (p *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	p.mu.Lock()
	if p.head < len(p.pending) {
		pkt := p.popPending()
		p.mu.Unlock()
		n, from := p.consume(pkt, b)
		return n, from, nil
	}
	dl := p.readDeadline
	p.mu.Unlock()
	var timeout <-chan time.Time
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return 0, nil, errTimeout{}
		}
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case batch := <-p.inbox:
		pkt := p.stashRest(batch)
		n, from := p.consume(pkt, b)
		return n, from, nil
	case <-p.done:
		return 0, nil, net.ErrClosed
	case <-timeout:
		return 0, nil, errTimeout{}
	}
}

// Close unbinds the endpoint; queued packets are discarded.
func (p *PacketConn) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.net.removePacket(p.local, p)
	})
	return nil
}

// DropsFull reports packets discarded at this endpoint's full inbox.
func (p *PacketConn) DropsFull() int64 {
	return p.dropsFull.Load()
}

// LocalAddr reports the bound virtual address.
func (p *PacketConn) LocalAddr() net.Addr { return p.localA }

// SetDeadline sets the read deadline; datagram writes never block, so
// the write half is a no-op.
func (p *PacketConn) SetDeadline(t time.Time) error { return p.SetReadDeadline(t) }

// SetReadDeadline sets the read deadline.
func (p *PacketConn) SetReadDeadline(t time.Time) error {
	p.mu.Lock()
	p.readDeadline = t
	p.mu.Unlock()
	return nil
}

// SetWriteDeadline is a no-op: datagram writes never block.
func (p *PacketConn) SetWriteDeadline(time.Time) error { return nil }

func (n *Network) removePacket(address string, p *PacketConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.packets[address] == p {
		delete(n.packets, address)
	}
}
