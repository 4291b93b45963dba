package engine

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/admission"
	"repro/internal/bandwidth"
	"repro/internal/message"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// Datagram data plane. With Config.DatagramData set, the engine binds a
// packet endpoint next to its stream listener and moves the data lane
// onto it: each sender frames data messages into datagrams toward its
// peer while the hello handshake, Busy refusals and every control-class
// message keep riding the reliable stream connection. The stream link
// remains the link: admission, identity, link-up/down notifications and
// inactivity detection all still hang off it, and datagrams from a
// source that never completed a hello are dropped at the port.
//
// Nothing on the datagram receive path may block: ring pushes are TryPush
// and overflow is counted loss — the shared endpoint must keep draining
// whatever one slow ring does.

// packetBatchWriter is the optional sendmmsg-shaped fast path a packet
// endpoint may offer: a whole batch of frames to one destination in a
// single call, amortizing the per-packet routing and handoff cost.
// vnet's PacketConn implements it; a kernel UDP socket does not (the
// stdlib has no sendmmsg) and takes the per-packet path.
type packetBatchWriter interface {
	WriteToBatch(bufs [][]byte, to net.Addr) (int, error)
}

// packetBatchReader is the matching recvmmsg-shaped fast path: drain a
// queued packet without blocking or copying, so one wakeup can consume
// a burst. The borrowed view is valid until its Release; the reader
// decodes (and the reassembler or message pool copies) before reading
// the next packet, so the borrow window is one loop iteration.
type packetBatchReader interface {
	TryReadDgrams(dst []vnet.Dgram) int
}

// dgramReadBatch caps the messages one reader wakeup accumulates before
// handing them to the switch.
const dgramReadBatch = 64

// dgramFraming is the link's wire format in datagram mode. Data messages
// are framed into datagrams toward the peer through the engine's shared
// packet endpoint; control messages are written directly to conn, the
// established (admitted) stream connection. A datagram send error loses
// that message but not the link — UDP send failures are transient — while
// a control write error tears the link down exactly like the stream
// framing.
//
// When the endpoint offers the sendmmsg-shaped batch path and the link is
// unshaped, consecutive messages accumulate into one arena and leave in
// a single WriteToBatch — one routing decision and one handoff for the
// lot — with metering folded to one update per flush. The same path lets
// a turn send a run itself (tryWrite). A shaped link (or an endpoint
// without the batch path) sends packet by packet so pacing keeps its
// per-packet granularity. Oversize messages (past the fragment budget at
// the configured MTU) are refused with a counted error.
type dgramFraming struct {
	e      *Engine
	s      *sender
	conn   net.Conn
	dest   net.Addr
	bw     packetBatchWriter // nil: endpoint has no batch path
	shaper bandwidth.Shaper

	seg     *message.Segment // arena's backing, borrowed from sharedPool
	arena   []byte           // backing for queued frames; never reallocated
	frames  [][]byte         // queued frames, each a view into arena
	wire    int64            // wire bytes of the messages queued
	msgs    int64            // messages queued
	scratch []byte           // per-packet path frame buffer
	render  []byte           // wire image scratch for messages without one
	taken   int64            // wire bytes of the batch's puts, see landed
}

func (e *Engine) newDgramFraming(s *sender, conn net.Conn) (framing, error) {
	dest, err := e.cfg.Transport.(PacketTransport).PacketAddr(s.peer.Addr())
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("datagram resolve: %w", err)
	}
	d := &dgramFraming{
		e: e, s: s, conn: conn, dest: dest,
		shaper:  e.budget.UpShaper(&s.linkLimit),
		scratch: make([]byte, 0, e.cfg.DatagramMTU),
	}
	if bw, ok := e.pconn.(packetBatchWriter); ok {
		// The arena is a receive segment's worth of bytes, borrowed from
		// the process's pool for as long as the sender goroutine runs.
		d.bw = bw
		d.seg = sharedPool.GetSegment()
		d.arena = d.seg.Bytes()[:0]
		s.inline = d
	}
	return d, nil
}

// release gives the arena back; the packet endpoint copied every frame it
// was handed, so nothing refers to it once the sender goroutine is done.
func (d *dgramFraming) release() {
	if d.seg != nil {
		d.seg.Release()
		d.seg, d.arena, d.frames = nil, nil, nil
	}
}

func (d *dgramFraming) begin() { d.taken = 0 }

func (d *dgramFraming) put(m *message.Msg) (bool, error) {
	if m.IsControl() {
		// A stream write can block on back-pressure; queued datagrams go
		// out first rather than waiting it out.
		_ = d.flush()
		n, err := m.WriteTo(d.conn)
		if err != nil {
			return true, err
		}
		d.s.meter.Add(n)
		d.e.counters.AddOut(1, n)
		d.taken += n
		return true, nil
	}
	d.taken += int64(m.WireLen())
	return d.addMsg(m), nil
}

// landed counts every data message put, sent or not: what becomes of a
// datagram is accounted in here, where a failed one costs the message and
// never the link.
func (d *dgramFraming) landed() int64 { return d.taken }

// wireOf returns m's contiguous wire image, rendering one into the
// reusable scratch for the rare message that lacks it (derived or
// externally built). The result is valid until the next call.
func (d *dgramFraming) wireOf(m *message.Msg) []byte {
	if w := m.Wire(); w != nil {
		return w
	}
	d.render = m.AppendHeader(d.render[:0])
	d.render = append(d.render, m.Payload()...)
	return d.render
}

// addMsg queues (or sends) one data message, reporting whether it went
// out packet by packet rather than into the arena.
func (d *dgramFraming) addMsg(m *message.Msg) bool {
	wire := d.wireOf(m)
	cnt, err := message.DgramFragments(len(wire), d.e.cfg.DatagramMTU)
	if err != nil {
		d.e.counters.AddDgramRefused(int64(len(wire)))
		d.e.rec.Emit(trace.KindShed, d.s.peer, m.App(), int64(len(wire)))
		return false
	}
	need := len(wire) + cnt*message.DgramHeaderSize
	if d.bw == nil || d.shaper.Active() || need > cap(d.arena) {
		d.writeNow(wire, cnt)
		return true
	}
	if need > cap(d.arena)-len(d.arena) {
		_ = d.flush()
	}
	d.arena, d.frames = d.appendFrames(d.arena, d.frames, wire, cnt)
	d.wire += int64(len(wire))
	d.msgs++
	return false
}

// appendFrames frames one message's wire image, cnt fragments under a
// fresh message id, onto arena and appends each frame's view of it to
// frames. The sender goroutine frames into its arena with it, a turn into
// its own.
func (d *dgramFraming) appendFrames(arena []byte, frames [][]byte, wire []byte, cnt int) ([]byte, [][]byte) {
	id := d.e.dgramSeq.Add(1)
	for i := 0; i < cnt; i++ {
		off := len(arena)
		arena = d.appendFragment(arena, wire, id, i, cnt)
		frames = append(frames, arena[off:len(arena):len(arena)])
	}
	return arena, frames
}

// appendFragment appends datagram i of cnt carrying message id's wire
// image to dst.
func (d *dgramFraming) appendFragment(dst, wire []byte, id uint32, i, cnt int) []byte {
	chunk := d.e.cfg.DatagramMTU - message.DgramHeaderSize
	lo := i * chunk
	hi := min(lo+chunk, len(wire))
	h := message.DgramHeader{Src: d.e.id, MsgID: id, FragIdx: uint16(i), FragCnt: uint16(cnt)}
	return message.AppendDgram(dst, h, wire[lo:hi])
}

// flush writes every queued frame in one batch write. A write error
// drops the queued messages — datagram loss, not link death — so the
// link's error is always nil.
func (d *dgramFraming) flush() error {
	if len(d.frames) == 0 {
		return nil
	}
	d.shaper.Wait(len(d.arena))
	if _, err := d.bw.WriteToBatch(d.frames, d.dest); err != nil {
		d.e.counters.AddDroppedBatch(d.msgs, d.wire)
	} else {
		d.s.meter.Add(d.wire)
		d.e.counters.AddOut(d.msgs, d.wire)
	}
	d.frames = d.frames[:0]
	d.arena = d.arena[:0]
	d.wire = 0
	d.msgs = 0
	return nil
}

// writeNow frames and sends one message packet by packet, pacing each
// datagram through the link shaper.
func (d *dgramFraming) writeNow(wire []byte, cnt int) {
	id := d.e.dgramSeq.Add(1)
	for i := 0; i < cnt; i++ {
		d.scratch = d.appendFragment(d.scratch[:0], wire, id, i, cnt)
		d.shaper.Wait(len(d.scratch))
		if _, werr := d.e.pconn.WriteTo(d.scratch, d.dest); werr != nil {
			d.e.counters.AddDropped(int64(len(wire)))
			return
		}
	}
	d.s.meter.Add(int64(len(wire)))
	d.e.counters.AddOut(1, int64(len(wire)))
}

func (d *dgramFraming) capped() bool { return d.shaper.Active() }

// tryWrite frames the run's leading messages and sends them in one
// WriteToBatch, which never waits on vnet. It stops at the first message
// without a wire image or past the fragment budget, and where the arena
// is full: the sender goroutine frames, refuses or sends the rest. The
// arena and frame list are the turn's scratch, not d.arena: the sender
// goroutine is outside begin/put/flush while its ring is Idle, but it
// still reads d.frames in the flush it runs when the ring closes, and Stop
// closes rings without the token.
func (d *dgramFraming) tryWrite(run []*message.Msg) (int, int64, error) {
	e := d.e
	if e.inlineSeg == nil {
		e.inlineSeg = sharedPool.GetSegment() // given back by Stop
	}
	arena, frames := e.inlineSeg.Bytes()[:0], e.inlineVec[:0]
	n := 0
	var wire int64
	for _, m := range run {
		w := m.Wire()
		if w == nil {
			break
		}
		cnt, err := message.DgramFragments(len(w), e.cfg.DatagramMTU)
		if err != nil || len(w)+cnt*message.DgramHeaderSize > cap(arena)-len(arena) {
			break
		}
		arena, frames = d.appendFrames(arena, frames, w, cnt)
		n++
		wire += int64(len(w))
	}
	var err error
	if n > 0 {
		_, err = d.bw.WriteToBatch(frames, d.dest)
	}
	e.inlineVec = frames[:0]
	return n, wire, err
}

// runDgramReader drains the node's packet endpoint: validate the frame,
// attribute it to the receiver link its source's hello established,
// reassemble, and hand the message to that link — switched on the spot
// when nothing is queued ahead of it, pushed onto its ring otherwise —
// without ever blocking. Datagrams from strangers — sources with no admitted
// receiver link — are dropped after a pass through the admission gate's
// per-source accounting, so a host spraying an open port walks into the
// same greylist the accept loop maintains.
func (e *Engine) runDgramReader(pc net.PacketConn) {
	defer e.wg.Done()
	// The read buffer is a receive segment borrowed for the reader's life:
	// every packet is decoded, copied or reassembled before the next read.
	seg := sharedPool.GetSegment()
	defer seg.Release()
	buf := seg.Bytes()
	ra := message.NewReassembler(0)
	tr, _ := pc.(packetBatchReader)
	var dgrams []vnet.Dgram
	if tr != nil {
		dgrams = make([]vnet.Dgram, dgramReadBatch)
	}

	// Messages completed by the packets of one wakeup are grouped by
	// their receiver link and handed over in one switch quantum or one
	// TryPushBatch, with one meter update per group — recvmmsg-shaped
	// amortization of the per-packet bookkeeping. The group flushes on
	// every source change and at the end of each wakeup's drain, so
	// nothing lingers past the packets in hand.
	msgs := make([]*message.Msg, 0, dgramReadBatch)
	var curR *receiver
	var curSrc message.NodeID
	var groupBytes int64
	flush := func() {
		if curR == nil || len(msgs) == 0 {
			return
		}
		// Metering the arrival refreshes the link's inactivity detector:
		// datagram traffic keeps the (quiet) stream link alive.
		curR.meter.Add(groupBytes)
		e.counters.AddIn(int64(len(msgs)), groupBytes)
		// With nothing of this reader's queued ahead on the link, it runs
		// the group's switch quantum itself; otherwise the ring and the
		// engine goroutine carry it.
		if !e.switchInline(curR, msgs, groupBytes) {
			e.buffered.Add(groupBytes)
			pushed := curR.ring.TryPushBatch(msgs)
			if pushed > 0 {
				e.signalWork()
			}
			// Ring full (or closed mid-teardown): loss, never back-pressure
			// on the shared endpoint.
			for _, m := range msgs[pushed:] {
				e.counters.AddDropped(int64(m.WireLen()))
				e.disown(m)
			}
		}
		msgs = msgs[:0]
		groupBytes = 0
	}
	// accept validates and reassembles one packet, queueing the
	// completed message on its receiver's group. owner, when non-nil, is
	// the packet's refcounted backing buffer: a single-fragment message
	// then aliases the packet bytes and takes the reference over
	// (reported by the true return) instead of copying — the zero-copy
	// receive path, mirroring the stream side's segment pinning.
	accept := func(pkt []byte, from net.Addr, owner message.Owner) bool {
		h, chunk, derr := message.DecodeDgram(pkt)
		if derr != nil {
			e.counters.AddDgramBad()
			return false
		}
		// One receiver lookup per source burst: datagrams arrive in runs
		// from one sender and the group flushes on source change anyway.
		// A receiver torn down mid-burst still fails safe — its closed
		// ring rejects the push and the messages are counted dropped.
		if curR == nil || h.Src != curSrc {
			e.mu.Lock()
			r := e.receivers[h.Src]
			e.mu.Unlock()
			if r == nil {
				e.door.Gate.AdmitDatagram(admission.SourceHost(from))
				e.counters.AddDgramNoLink()
				return false
			}
			if r != curR {
				flush()
				curR = r
			}
			curSrc = h.Src
		}
		invalidBefore := ra.Invalid()
		wire, ok := ra.Accept(h, chunk)
		if !ok {
			if ra.Invalid() > invalidBefore {
				e.counters.AddDgramBad()
			}
			return false
		}
		if size, _ := message.PeekPayloadLen(wire); size > message.DefaultMaxPayload {
			e.counters.AddDgramBad()
			return false
		}
		var m *message.Msg
		took := false
		if owner != nil && h.FragCnt == 1 {
			// Single-fragment wire aliases the packet: pin, don't copy.
			m = message.FromOwned(wire, owner)
			took = true
		} else {
			m = message.FromBytes(wire, sharedPool)
		}
		if m.IsControl() {
			// Control rides the reliable lane by design; a control frame
			// arriving by datagram is a protocol violation.
			m.Release()
			e.counters.AddDgramBad()
			return took
		}
		msgs = append(msgs, m)
		groupBytes += int64(m.WireLen())
		return took
	}

	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) || errors.Is(err, vnet.ErrNetworkDown) {
				return
			}
			// Transient (ICMP-induced errors on some platforms): don't
			// spin on a hot error.
			time.Sleep(time.Millisecond)
			continue
		}
		accept(buf[:n], from, nil)
		if tr != nil {
			for len(msgs) < dgramReadBatch {
				k := tr.TryReadDgrams(dgrams[:dgramReadBatch-len(msgs)])
				if k == 0 {
					break
				}
				for i := 0; i < k; i++ {
					if !accept(dgrams[i].Data, dgrams[i].From, dgrams[i].Owner()) {
						dgrams[i].Release()
					}
					dgrams[i] = vnet.Dgram{}
				}
			}
		}
		flush()
		curR = nil
	}
}
