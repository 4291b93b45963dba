package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/bandwidth"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/queue"
	"repro/internal/trace"
)

// receiver owns one incoming persistent connection: a dedicated goroutine
// reads messages from the socket, routes control messages to the engine
// loop and pushes data messages into its circular buffer, blocking when
// the buffer is full so that back-pressure propagates to the upstream TCP
// connection — the paper's thread-per-receiver design.
type receiver struct {
	peer   message.NodeID
	conn   net.Conn
	in     bandwidth.Reader // conn behind the node's down shaper
	ring   queue.Ring
	meter  metrics.Meter
	weight atomic.Int32 // weighted share; written via SetReceiverWeight
	// pass is the link's stride-scheduling virtual time, negative until the
	// switch first serves the link from its ring. Token holder only.
	pass float64
	apps appSet // data apps seen on this link; token holder only
	// inactivity is the monotonic staleness deadline: armed at
	// InactivityTimeout past the last observed traffic, checked in a turn
	// of the engine goroutine. Token holder only after arming.
	inactivity *time.Timer
}

func (e *Engine) newReceiver(peer message.NodeID, conn net.Conn) *receiver {
	r := &receiver{
		peer: peer,
		conn: conn,
		in:   bandwidth.NewReader(conn, &e.down),
		pass: -1, // joins the stride scheduler at the current minimum with its first batch
	}
	r.ring.Init(e.cfg.RecvBuf)
	r.meter.Init()
	r.weight.Store(1)
	return r
}

// runReceiver is the receiver thread body. Each iteration performs one
// bulk read from the socket into a pooled segment, then decodes every
// fully arrived message inside it and pushes the data messages to the
// ring in batches — one lock acquisition and one engine wakeup per burst
// of arrivals instead of one per message. Large bursts decode zero-copy:
// the messages alias the segment, which stays checked out until the last
// of them is released. Small bursts (trickle traffic, shaped links) are
// copied out into per-message pool buffers instead, so a slowly draining
// ring can never pin a segment's worth of memory per message. A full ring
// still blocks this goroutine exactly as in the unbatched design, so
// back-pressure propagates to the upstream connection unchanged.
func (e *Engine) runReceiver(r *receiver) {
	defer e.wg.Done()
	maxBatch := e.cfg.BatchSize
	if c := r.ring.Cap(); maxBatch > c {
		maxBatch = c
	}
	batch := make([]*message.Msg, 0, maxBatch)
	var bytes int64

	// flush meters and pushes the gathered batch; false means the ring was
	// closed by the engine and the receiver must stand down.
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		// Meter once per batch: timestamped meters and atomic counters
		// are per-message costs worth amortizing at these message rates.
		r.meter.Add(bytes)
		e.counters.AddIn(int64(len(batch)), bytes)
		// With nothing to queue behind, this goroutine runs the batch's
		// switch quantum itself; otherwise the ring and the engine goroutine
		// carry it.
		ok := e.switchInline(r, batch, bytes) || e.ingest(&r.ring, batch, bytes)
		batch, bytes = batch[:0], 0
		return ok
	}
	// deliver routes one decoded message; false means stand down.
	deliver := func(m *message.Msg) bool {
		if m.IsData() {
			bytes += int64(m.WireLen())
			batch = append(batch, m)
			if len(batch) < maxBatch {
				return true
			}
			return flush()
		}
		// A control message is delivered after the data that preceded it
		// on the wire, so the batch goes first.
		if !flush() {
			m.Release()
			return false
		}
		wl := int64(m.WireLen())
		r.meter.Add(wl)
		e.counters.AddIn(1, wl)
		e.deliverControl(m, r.peer)
		return true
	}

	seg := e.pool.GetSegment()
	fail := func() {
		seg.Release()
		e.postEvent(func(API) { e.receiverGone(r) })
	}
	fill := 0
	for {
		n, err := r.in.Read(seg.Bytes()[fill:])
		if err != nil {
			fail()
			return
		}
		fill += n
		// Zero-copy aliasing only pays when the burst is substantial;
		// below the threshold each message is copied into its own pooled
		// buffer and the segment is immediately reusable.
		alias := 2*fill >= message.SegmentSize
		aliased := false
		off := 0
		for {
			b := seg.Bytes()[off:fill]
			size, ok := message.PeekPayloadLen(b)
			if !ok {
				break // header not fully arrived: carry the tail
			}
			if size > message.DefaultMaxPayload {
				flush()
				fail()
				return
			}
			wire := message.HeaderSize + size
			if off+wire > message.SegmentSize {
				// The message can never fit in the remaining segment:
				// assemble it in its own pool buffer, blocking until the
				// sender's remaining bytes arrive.
				m, err := message.ReadContinued(b, &r.in, e.pool)
				if err != nil {
					flush()
					fail()
					return
				}
				off = fill
				if !deliver(m) {
					fail()
					return
				}
				break
			}
			if len(b) < wire {
				break // message not fully arrived: carry the tail
			}
			var m *message.Msg
			if alias {
				m = message.FromSegment(seg, off)
				aliased = true
			} else {
				m = message.FromBytes(b, e.pool)
			}
			off += wire
			if !deliver(m) {
				fail()
				return
			}
		}
		if !flush() {
			fail()
			return
		}
		// Carry any partial tail into the next read. An aliased segment is
		// shared with in-flight messages, so the tail moves to a fresh one.
		rem := fill - off
		switch {
		case aliased:
			ns := e.pool.GetSegment()
			copy(ns.Bytes(), seg.Bytes()[off:fill])
			seg.Release()
			seg = ns
		case rem > 0 && off > 0:
			copy(seg.Bytes(), seg.Bytes()[off:fill])
		}
		fill = rem
	}
}

// sender owns one outgoing persistent connection: the engine switch pushes
// message references into its circular buffer; a dedicated goroutine dials
// the peer, then drains the buffer to the (bandwidth-shaped) socket — the
// paper's thread-per-sender design with the sender suspended on an empty
// buffer.
type sender struct {
	peer      message.NodeID
	conn      net.Conn // set by the sender goroutine after dialing
	connReady chan struct{}
	ring      queue.Ring
	// staged is the data the current turn has sent toward the peer and
	// flushStaged has not yet moved to the wire or into ring. Token holder
	// only.
	staged []*message.Msg
	// apps is the data apps forwarded over the link, for BrokenSource
	// cascades. Token holder only.
	apps      appSet
	meter     metrics.Meter
	linkLimit bandwidth.Limiter // per-link emulated bandwidth
	// inline is the link's framing when it has a non-blocking write, nil on
	// every other link. Like conn it is set by the sender goroutine before
	// connReady closes and read only after.
	inline inlineWriter
	// dialMu guards dialConn, the connection whose handshake is in flight:
	// Stop and CloseLink close it from outside so a dialer blocked on the
	// peer's admission reply returns at once instead of at the handshake
	// deadline.
	dialMu   sync.Mutex
	dialConn net.Conn
	// reply receives the peer's admission reply frame — a bare Welcome
	// header, or a Busy header and payload. Sender goroutine only.
	reply [message.HeaderSize + protocol.BusySize]byte
}

func newSender(peer message.NodeID, bufMsgs int, linkRate int64) *sender {
	s := &sender{peer: peer, connReady: make(chan struct{})}
	s.ring.Init(bufMsgs)
	s.meter.Init()
	s.linkLimit.Init(linkRate)
	return s
}

// framing is the wire format of one link, chosen once when the link comes
// up: the sender loop hands it messages and never learns whether they
// leave as a byte stream or as datagrams. A framing meters what it writes,
// at the granularity its format can afford.
type framing interface {
	// begin opens a drained batch; what SetBandwidth may have retuned
	// since the last one is re-read here, or per message.
	begin()
	// put frames m. through reports that m went to the wire inside the
	// call instead of being queued for flush: only such a write can have
	// been paced or blocked, so only then can control have arrived behind
	// it. An error is fatal to the link.
	put(m *message.Msg) (through bool, err error)
	// flush writes out whatever put queued.
	flush() error
	// landed reports the wire bytes of this batch's puts that a write
	// error on the link can no longer lose.
	landed() int64
}

// inlineWriter is the non-blocking write of a link's framing, the one a
// turn makes itself instead of waking the link's sender goroutine
// (writeInline). The stream framing offers it on a connection with
// TryWriteBuffers, the datagram framing on an endpoint with WriteToBatch;
// kernel sockets have neither, so real links keep their goroutine.
type inlineWriter interface {
	// capped reports that an emulated cap — link, uplink or total — paces
	// the link.
	capped() bool
	// tryWrite writes the leading messages of run that can go out whole
	// right now, without waiting, and reports how many and their wire
	// bytes. An error means those n messages were lost, not the link.
	tryWrite(run []*message.Msg) (n int, bytes int64, err error)
}

// runSender is the sender thread body. It dials lazily: messages queued
// while the connection is being established are delivered once it is up.
// A failed dial is retried with capped exponential backoff up to
// linkTiming.DialAttempts times — transient refusals during churn (a peer
// mid-restart, a healing partition) no longer kill the link on the first
// try — before the link is declared down.
func (e *Engine) runSender(s *sender) {
	defer e.wg.Done()
	// dialPeer runs the whole handshake, so a returned connection is
	// already admitted by the peer's gate and registered as its receiver.
	conn, err := e.dialPeer(s)
	var f framing
	if err == nil {
		f, err = e.newFraming(s, conn)
	}
	if err != nil {
		close(s.connReady)
		e.dropQueued(&s.ring)
		e.postEvent(func(API) { e.senderGone(s) })
		return
	}
	s.conn = conn
	close(s.connReady)
	e.rec.Emit(trace.KindLinkUp, s.peer, 0, 0)

	maxBatch := e.cfg.BatchSize
	if c := s.ring.Cap(); maxBatch > c {
		maxBatch = c
	}
	batch := make([]*message.Msg, maxBatch)
	var over []*message.Msg // control that overtook the batch in hand
	for {
		// The pop marks the ring held in the same critical section, until
		// the Unhold below: a turn that finds the ring empty must still be
		// able to tell that this batch is not on the wire yet, or its own
		// write would overtake it (writeInline), and a departing node that
		// its last bytes are not out (drainedForDeparture). An error return
		// leaves the hold in place — nothing may bypass a dead link.
		n, err := s.ring.PopBatchHold(batch)
		if err != nil {
			// Ring closed: graceful teardown; flush what was written.
			_ = f.flush()
			_ = conn.Close()
			return
		}
		e.sendBatchHist.Observe(int64(n))
		// The batch stays charged until it is disposed of below: a shaped
		// batch can take seconds to drain, and a framing may queue wire
		// images until flush.
		var held int64
		for i := 0; i < n; i++ {
			held += int64(batch[i].WireLen())
		}
		f.begin()
		var overtook int64
		for i := 0; i < n && err == nil; i++ {
			var through bool
			through, err = f.put(batch[i])
			// Control before data holds inside an in-flight batch too: a
			// paced batch can take seconds to drain, and a failure
			// notification pushed meanwhile must not wait it out.
			for through && err == nil {
				cm, ok := s.ring.TryPopCtrl()
				if !ok {
					break
				}
				over = append(over, cm)
				cwl := int64(cm.WireLen())
				held += cwl
				e.rec.Emit(trace.KindCtrlBypass, s.peer, cm.App(), cwl)
				if _, err = f.put(cm); err != nil {
					e.counters.AddDropped(cwl)
				} else {
					overtook += cwl
				}
			}
		}
		if err == nil {
			err = f.flush()
		}
		if err != nil {
			// Loss accounting covers the message in flight at failure
			// time: a partially written frame never becomes deliverable,
			// so every message whose wire image did not fully land counts
			// as dropped in full — one counter hit per lost message, not
			// one lump for the unsent byte remainder.
			landed := f.landed() - overtook
			var off int64
			for i := 0; i < n; i++ {
				wl := int64(batch[i].WireLen())
				if off+wl > landed {
					e.counters.AddDropped(wl)
				}
				off += wl
			}
		}
		for i := 0; i < n; i++ {
			batch[i].Release()
			batch[i] = nil
		}
		for i, cm := range over {
			cm.Release()
			over[i] = nil
		}
		wrote := n + len(over)
		over = over[:0]
		e.credit(held)
		if err != nil {
			// Close promptly so the peer's receiver observes the failure
			// now rather than at its inactivity timeout.
			_ = conn.Close()
			e.dropQueued(&s.ring)
			e.postEvent(func(API) { e.senderGone(s) })
			return
		}
		e.writtenBySender.Add(uint64(wrote))
		s.ring.Unhold()
		// One wakeup per drained batch: the switch retries parked messages
		// destined to this (now less full) buffer promptly.
		e.signalWork()
	}
}

// newFraming picks the link's wire format — the one place the sender path
// reads Config.DatagramData. On error the connection is closed.
func (e *Engine) newFraming(s *sender, conn net.Conn) (framing, error) {
	if e.cfg.DatagramData {
		// Data rides the packet endpoint; the admitted stream connection
		// stays up as the control lane.
		return e.newDgramFraming(s, conn)
	}
	f := &streamFraming{e: e, s: s, conn: conn, shaper: e.budget.UpShaper(&s.linkLimit)}
	f.bw, _ = conn.(buffersWriter)
	if f.tw, _ = conn.(tryBuffersWriter); f.tw != nil {
		s.inline = f
	}
	return f, nil
}

// streamFraming writes messages back to back on the link's connection,
// by one of two roads picked per batch (SetBandwidth retunes links at
// runtime). Unshaped vectored connections gather the batch and flush it
// straight from the messages' contiguous wire images in a single pipe
// operation — no intermediate buffer, no copy. Everything else goes
// through the write buffer and the shapers: flushed per message on shaped
// links, where holding messages back would turn a smooth emulated rate
// into bursts downstream, and once the ring runs dry on unshaped ones. The
// write buffer is built the first time a message takes that road, so a
// link that never does — an unshaped vnet link — never pays for it.
type streamFraming struct {
	e      *Engine
	s      *sender
	conn   net.Conn
	bufw   *bufio.Writer    // nil until the buffered road is first taken
	shaper bandwidth.Shaper // the link's cap and the node's uplink and total caps
	shaped bandwidth.Writer // bufw behind shaper
	bw     buffersWriter    // nil: the connection has no vectored write
	tw     tryBuffersWriter // nil: nor a non-blocking one; see writeInline
	vec    [][]byte         // wire images gathered for the batch's one write
	paced  bool             // this batch: some emulated cap paces the link
	sent   int64            // bytes this batch handed to the connection or bufw
}

func (f *streamFraming) begin() {
	f.paced, f.sent = f.shaper.Active(), 0
}

func (f *streamFraming) put(m *message.Msg) (bool, error) {
	if f.bw != nil && !f.paced {
		if w := m.Wire(); w != nil {
			f.vec = append(f.vec, w)
			return false, nil
		}
		// Rare: no contiguous image (derived or externally built
		// message). Preserve order: drain the gathered run first.
		if err := f.writeVec(); err != nil {
			return true, err
		}
		n, err := m.WriteTo(f.conn)
		f.wrote(1, n)
		return true, err
	}
	if f.bufw == nil {
		f.bufw = bufio.NewWriterSize(f.conn, 32<<10)
		f.shaped = bandwidth.NewWriter(f.bufw, &f.shaper)
	}
	n, err := m.WriteTo(&f.shaped)
	if err == nil && f.paced {
		err = f.bufw.Flush()
	}
	// Metered per message here: a shaped batch can take longer to drain
	// than a measurement window, and lump-metering it at the end would
	// alias windowed rate samples.
	f.wrote(1, n)
	return true, err
}

// writeVec lands the gathered images in one vectored write, metered as
// one lump: at unshaped speeds per-message metering is pure overhead and
// the lump is far smaller than any measurement window.
func (f *streamFraming) writeVec() error {
	if len(f.vec) == 0 {
		return nil
	}
	n, err := f.bw.WriteBuffers(f.vec)
	msgs := len(f.vec)
	if err != nil {
		// Count only the images that landed whole.
		msgs = 0
		for left := n; msgs < len(f.vec) && left >= int64(len(f.vec[msgs])); msgs++ {
			left -= int64(len(f.vec[msgs]))
		}
	}
	f.wrote(int64(msgs), n)
	f.vec = f.vec[:0]
	return err
}

func (f *streamFraming) wrote(msgs, n int64) {
	f.s.meter.Add(n)
	f.e.counters.AddOut(msgs, n)
	f.sent += n
}

func (f *streamFraming) flush() error {
	if err := f.writeVec(); err != nil {
		return err
	}
	if f.buffered() > 0 && f.s.ring.Len() == 0 {
		return f.bufw.Flush()
	}
	return nil
}

// landed discounts the bytes stranded in the write buffer: they never
// reached the wire either.
func (f *streamFraming) landed() int64 {
	return f.sent - int64(f.buffered())
}

// buffered reports the bytes waiting in the write buffer; none before it
// is built.
func (f *streamFraming) buffered() int {
	if f.bufw == nil {
		return 0
	}
	return f.bufw.Buffered()
}

func (f *streamFraming) capped() bool { return f.shaper.Active() }

// tryWrite hands the run's leading wire images to TryWriteBuffers, which
// takes whole frames only. The vector is the turn's scratch, not f.vec: the
// sender goroutine reads that even on a closed ring. A write error is never
// reported here: the sender goroutine meets it on the tail, and the link
// dies once, in runSender.
func (f *streamFraming) tryWrite(run []*message.Msg) (int, int64, error) {
	vec := f.e.inlineVec[:0]
	for _, m := range run {
		w := m.Wire()
		if w == nil {
			break // no contiguous image: the sender goroutine renders it
		}
		vec = append(vec, w)
	}
	frames, bytes, _ := f.tw.TryWriteBuffers(vec)
	clear(vec)
	f.e.inlineVec = vec[:0]
	return frames, bytes, nil
}

// errPeerBusy marks a dial attempt refused by the peer's admission gate
// with a Busy frame; the carried hint floors the next backoff delay.
var errPeerBusy = errors.New("engine: peer refused admission (busy)")

// errBadReply marks a dial attempt answered with anything other than a
// Welcome or Busy frame.
var errBadReply = errors.New("engine: unexpected reply to hello")

// errLinkClosed ends the dial of a link that Stop or CloseLink already
// tore down.
var errLinkClosed = errors.New("engine: link closed while dialing")

// dialPeer opens the outgoing connection to s.peer, retrying with backoff
// until an attempt is admitted, the attempt budget is exhausted, or the
// link is closed under it (Stop, CloseLink). A Busy refusal consumes the
// attempt and floors the next backoff delay with the acceptor's
// retry-after hint.
func (e *Engine) dialPeer(s *sender) (net.Conn, error) {
	var bo *backoff // built on the first failure: most dials never retry
	for attempt := 1; ; attempt++ {
		conn, hint, err := e.dialOnce(s)
		if err == nil {
			return conn, nil
		}
		if attempt >= e.timing.DialAttempts || s.ring.Closed() {
			return nil, err
		}
		if bo == nil {
			bo = e.newBackoff(int64(s.peer.IP)<<16 ^ int64(s.peer.Port))
		}
		bo.floor(hint)
		d := bo.next()
		e.rec.Emit(trace.KindBackoff, s.peer, 0, int64(d))
		select {
		case <-e.done:
			return nil, err
		case <-time.After(d):
		}
	}
}

// dialOnce makes one attempt at the link: the transport connection, then
// the handshake on it. The connection is published on the sender for the
// handshake's duration, which lets Stop and CloseLink interrupt it. A
// refusal's retry-after hint comes back with the error.
func (e *Engine) dialOnce(s *sender) (net.Conn, time.Duration, error) {
	conn, err := e.cfg.Transport.DialFrom(e.addr, s.peer.Addr(), e.timing.Handshake)
	if err != nil {
		return nil, 0, err
	}
	s.setDialConn(conn)
	hint, err := e.greet(s, conn)
	s.setDialConn(nil)
	if err != nil {
		_ = conn.Close()
		return nil, hint, err
	}
	return conn, 0, nil
}

// greet is the client side of the handshake, one round trip: the hello
// goes out and the acceptor's one reply frame comes back, both inside
// the handshake deadline — a blackholed peer with a full socket buffer
// stalls the hello write no longer than a mute one stalls the reply.
func (e *Engine) greet(s *sender, conn net.Conn) (time.Duration, error) {
	if s.ring.Closed() {
		// Closed before the connection was published: nobody will
		// interrupt this handshake, so it must not start.
		return 0, errLinkClosed
	}
	_ = conn.SetDeadline(time.Now().Add(e.timing.Handshake))
	if _, err := conn.Write(e.hello); err != nil {
		return 0, err
	}
	hint, err := awaitAdmission(conn, s.reply[:])
	_ = conn.SetDeadline(time.Time{})
	return hint, err
}

// awaitAdmission reads the acceptor's reply to the hello — exactly one
// frame, so nothing the peer sends behind it is consumed — into buf,
// which must hold a header plus a Busy payload. Welcome means admitted:
// the peer has registered the link. Busy returns errPeerBusy with the
// refusal's retry-after hint (zero when the payload does not decode).
// A connection closed without a frame is an error like any other: a
// greylisted source, or a refusal past the Busy-writer bound, is shed
// silently.
func awaitAdmission(conn net.Conn, buf []byte) (time.Duration, error) {
	hdr := buf[:message.HeaderSize]
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return 0, err
	}
	size, _ := message.PeekPayloadLen(hdr)
	switch message.Type(binary.BigEndian.Uint32(hdr[0:4])) {
	case protocol.TypeWelcome:
		if size != 0 {
			return 0, errBadReply
		}
		return 0, nil
	case protocol.TypeBusy:
		payload := buf[message.HeaderSize:]
		if size != len(payload) {
			return 0, errPeerBusy
		}
		if _, err := io.ReadFull(conn, payload); err != nil {
			return 0, errPeerBusy
		}
		bz, err := protocol.DecodeBusy(payload)
		if err != nil {
			return 0, errPeerBusy
		}
		return time.Duration(bz.RetryAfterNanos), errPeerBusy
	default:
		return 0, errBadReply
	}
}

// setDialConn publishes (or, with nil, retracts) the connection whose
// handshake the sender goroutine is running.
func (s *sender) setDialConn(conn net.Conn) {
	s.dialMu.Lock()
	s.dialConn = conn
	s.dialMu.Unlock()
}

// interruptDial closes the connection a handshake is in flight on, if
// any. Callers close s.ring first: the dialer checks the ring after
// publishing its connection, so one side always sees the other.
func (s *sender) interruptDial() {
	s.dialMu.Lock()
	conn := s.dialConn
	s.dialMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// buffersWriter is the vectored-write fast path vnet connections provide:
// a whole batch of wire images lands in the peer's socket buffer under a
// single lock acquisition.
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

// tryBuffersWriter is the optional non-blocking form of buffersWriter:
// the leading buffers that fit whole right now, never part of one, never a
// wait. It is what lets a turn write a destination's run itself instead of
// waking the link's sender goroutine (writeInline). vnet connections have
// it; a kernel TCP socket takes partial frames, so real links do not and
// keep their goroutine.
type tryBuffersWriter interface {
	TryWriteBuffers(bufs [][]byte) (frames int, bytes int64, err error)
}

// dropQueued counts and releases everything still queued on a failed
// link — the paper's "bytes (or messages) lost due to failures".
func (e *Engine) dropQueued(r *queue.Ring) {
	for {
		m, ok := r.TryPop()
		if !ok {
			return
		}
		e.counters.AddDropped(int64(m.WireLen()))
		e.disown(m)
	}
}

// handshake takes over a connection the door admitted and identified:
// it registers the connection as peer's receiver link and answers with
// the Welcome frame the dialer is waiting for. The door holds the
// admission token until this function returns, the reply written, so
// MaxHandshakes bounds these goroutines exactly.
func (e *Engine) handshake(conn net.Conn, peer message.NodeID, _ uint32, _ func()) {
	r := e.newReceiver(peer, conn)
	e.mu.Lock()
	if e.stopping {
		e.mu.Unlock()
		_ = conn.Close()
		return
	}
	old := e.receivers[peer]
	e.receivers[peer] = r
	e.recvGen.Add(1)
	e.mu.Unlock()
	if old != nil {
		// A reconnect replaces the stale link, and what that still had
		// buffered is lost with it: the switch no longer sees the ring.
		_ = old.conn.Close()
		old.ring.Close()
		e.dropQueued(&old.ring)
	}
	// The explicit admission reply: the dialer treats nothing short of
	// this frame as admitted, so the link costs one round trip at any
	// RTT. A dialer that hung up or stalls the write gets its connection
	// closed; the receiver goroutine then observes the failure and tears
	// the link down through the normal path.
	_ = conn.SetWriteDeadline(time.Now().Add(admission.ReplyWriteTimeout))
	if _, err := conn.Write(e.welcome); err != nil {
		_ = conn.Close()
	}
	_ = conn.SetWriteDeadline(time.Time{})
	e.armInactivity(r)
	e.rec.Emit(trace.KindAccept, peer, 0, int64(admission.Admitted))
	e.rec.Emit(trace.KindLinkUp, peer, 0, 1)
	e.wg.Add(1)
	go e.runReceiver(r)
	e.postEvent(func(API) {
		var b [protocol.LinkEventSize]byte
		e.notifyAlg(protocol.TypeLinkUp, 0,
			protocol.LinkEvent{Peer: peer, Upstream: true}.Append(b[:0]))
	})
}

// observerLink is the node's control link to the observer (or its proxy):
// status reports and traces flow out, bootstrap replies and control
// commands flow in.
type observerLink struct {
	*Link
	peer message.NodeID // the observer this link registered with
	// A registration is provisional until the observer answers it with
	// something other than Busy: resume is the reconnect progression
	// before the provisional reset, put back if the link dies unconfirmed.
	// confirmed is written by the reader goroutine and read by
	// observerGone, which the reader's exit event orders after it.
	resume    int
	confirmed bool
}

// runObserverReader feeds observer commands into the engine loop.
func (e *Engine) runObserverReader(o *observerLink) {
	defer e.wg.Done()
	for {
		m, err := o.Read()
		if err != nil {
			e.postEvent(func(API) { e.observerGone(o) })
			return
		}
		if m.Type() == protocol.TypeBusy {
			// The observer's admission gate refused this registration; it
			// will hang up next. Stash the retry-after hint so the
			// reconnect loop waits at least that long before redialing.
			if bz, derr := protocol.DecodeBusy(m.Payload()); derr == nil {
				e.obsBusyHint.Store(bz.RetryAfterNanos)
			}
			m.Release()
			continue
		}
		if !o.confirmed {
			o.confirmed = true
			e.observerConfirmed(o)
		}
		// Attribute to the observer this link registered with — after a
		// failover that is no longer the head of the list.
		e.deliverControl(m, o.peer)
	}
}
