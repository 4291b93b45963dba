package engine

import (
	"bufio"
	"net"
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

// receiver owns one incoming persistent connection: a dedicated goroutine —
// the one that accepted the connection — reads messages from the socket,
// routes control messages to the engine loop and pushes data messages into
// its circular buffer, blocking when the buffer is full so that
// back-pressure propagates to the upstream TCP connection — the paper's
// thread-per-receiver design.
type receiver struct {
	peer   message.NodeID
	conn   net.Conn
	in     bandwidth.Reader // conn behind the node's down shaper
	ring   queue.Ring
	meter  metrics.Meter
	weight atomic.Int32 // weighted share; written via SetReceiverWeight
	// pass is the link's stride-scheduling virtual time, negative until the
	// switch first serves the link. Token holder only.
	pass float64
	// up is set by the link's LinkUp turn. Until then the switch serves the
	// link's data neither from its ring nor inline, so the algorithm sees a
	// link come up before anything it carries. Token holder only.
	up        bool
	apps      appSet    // data apps seen on this link; token holder only
	firstApps [2]uint32 // apps' first storage
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
	r.apps = r.firstApps[:0]
	r.ring.Init(e.cfg.RecvBuf)
	r.meter.Init()
	r.weight.Store(1)
	return r
}

// runReceiver is the receiver thread body, run by the goroutine that
// accepted the connection once the link is up. Each iteration performs one
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
	var batch []*message.Msg
	var inline [DefaultBatchSize]*message.Msg // the batch, unless BatchSize is larger
	if maxBatch := e.maxBatch(&r.ring); maxBatch <= len(inline) {
		batch = inline[:0:maxBatch]
	} else {
		batch = make([]*message.Msg, 0, maxBatch)
	}
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
			if len(batch) < cap(batch) {
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

	seg := sharedPool.GetSegment()
	fail := func() {
		seg.Release()
		e.linkDown(r)
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
				m, err := message.ReadContinued(b, &r.in, sharedPool)
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
				m = message.FromBytes(b, sharedPool)
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
			ns := sharedPool.GetSegment()
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
	peer message.NodeID
	conn net.Conn // set by the sender goroutine after dialing
	// dialed is raised by the sender goroutine once its dial has ended,
	// admitted or not; conn is nil if not.
	dialed atomic.Bool
	ring   queue.Ring
	// out is the link's queue: what turns sent toward the peer that is in
	// neither ring nor the wire — first the parked backlog a full ring
	// refused, then the current turn's data, and control that had to queue
	// (deliverOut). flushOut moves it on. Token holder only.
	out      []*message.Msg
	firstOut [4]*message.Msg // out's first storage
	// apps is the data apps forwarded over the link, for BrokenSource
	// cascades. Token holder only.
	apps      appSet
	firstApps [2]uint32 // apps' first storage
	// wanted is raised by the switch before its last try-push into ring
	// (pushOrWant) and swapped off by the sender goroutine after each
	// batch, which wakes the switch only if it was raised.
	wanted    atomic.Bool
	meter     metrics.Meter
	linkLimit bandwidth.Limiter // per-link emulated bandwidth
	// inline is the link's framing when it has a non-blocking write, nil on
	// every other link. Like conn it is set by the sender goroutine before
	// dialed is raised and read only after.
	inline inlineWriter
	// dialer runs the link's handshake on the sender goroutine; Stop and
	// CloseLink close it, so a dial blocked on the peer's admission reply
	// returns at once instead of at the handshake deadline.
	dialer Dialer
	// stream is the link's framing when it carries data as a byte stream;
	// a datagram link builds its own.
	stream streamFraming
}

func newSender(peer message.NodeID, bufMsgs int, linkRate int64) *sender {
	s := &sender{peer: peer}
	s.out, s.apps = s.firstOut[:0], s.firstApps[:0]
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
		s.dialed.Store(true)
		e.dropQueued(&s.ring)
		e.postEvent(func(API) { e.senderGone(s) })
		return
	}
	s.conn = conn
	s.dialed.Store(true)
	e.rec.Emit(trace.KindLinkUp, s.peer, 0, 0)

	var batch []*message.Msg
	var inline [DefaultBatchSize]*message.Msg // the batch, unless BatchSize is larger
	if maxBatch := e.maxBatch(&s.ring); maxBatch <= len(inline) {
		batch = inline[:maxBatch]
	} else {
		batch = make([]*message.Msg, maxBatch)
	}
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
			// notification pushed meanwhile must not wait it out. The
			// batch holds its control first, and later control may not
			// overtake it: only data is left to bypass.
			for through && err == nil && (i+1 == n || !batch[i+1].IsControl()) {
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
		// The switch retries what this ring refused once the batch has made
		// room — and is woken only if something did wait for room: it sets
		// wanted before its last try-push, so a push it lost to a full ring
		// is always followed by a batch that reads wanted here.
		if s.wanted.Swap(false) {
			e.signalWork()
		}
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
	f := &s.stream
	*f = streamFraming{e: e, s: s, conn: conn, shaper: e.budget.UpShaper(&s.linkLimit)}
	f.vec = f.firstVec[:0]
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
	// firstVec is vec's first storage: a link that carries a trickle never
	// allocates one.
	firstVec [4][]byte
	paced    bool  // this batch: some emulated cap paces the link
	sent     int64 // bytes this batch handed to the connection or bufw
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

// dialPeer opens the outgoing connection to s.peer, retrying with backoff
// until an attempt is admitted, the attempt budget is exhausted, or the
// link is closed under it (Stop, CloseLink). A Busy refusal consumes the
// attempt and floors the next backoff delay with the acceptor's
// retry-after hint.
func (e *Engine) dialPeer(s *sender) (net.Conn, error) {
	var bo *backoff // built on the first failure: most dials never retry
	for attempt := 1; ; attempt++ {
		conn, hint, err := s.dialer.Dial(e.cfg.Transport, e.addr, s.peer.Addr(), e.hello, e.timing.Handshake)
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

// handshake takes over a connection the door admitted and identified, and
// the goroutine it runs on becomes the link's receiver: it registers the
// connection as peer's receiver link, runs or posts the algorithm's LinkUp,
// answers with the Welcome frame the dialer is waiting for, hands the
// admission token back and reads the link until it dies. The token is held
// until the Welcome is written, so MaxHandshakes bounds the links still
// being set up exactly; the door's goroutine is already counted in e.wg.
func (e *Engine) handshake(conn net.Conn, peer message.NodeID, _ uint32, tok *admission.Token) {
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
	// The dialer sends nothing before the Welcome, so the link's first data
	// finds its LinkUp run, or queued as a turn that waiting counts.
	e.linkUp(r)
	// A dialer that hung up or stalls the Welcome gets its connection
	// closed; the read below then observes the failure and tears the link
	// down through the normal path.
	_ = e.door.Welcome(conn)
	tok.Release()
	e.armInactivity(r)
	e.rec.Emit(trace.KindAccept, peer, 0, int64(admission.Admitted))
	e.rec.Emit(trace.KindLinkUp, peer, 0, 1)
	e.runReceiver(r)
}

// maxBatch is how many messages a link's goroutine moves through ring in
// one operation.
func (e *Engine) maxBatch(ring *queue.Ring) int {
	return min(e.cfg.BatchSize, ring.Cap())
}

// linkUp tells the algorithm that r's link is up, in a turn of its own: run
// here when the token is free and no turn waits for the engine goroutine —
// the calling goroutine wakes nobody — and posted to the engine goroutine
// otherwise.
func (e *Engine) linkUp(r *receiver) {
	// waiting is read again under the token, as in switchInline.
	if e.waiting.Load() == 0 && e.turnMu.TryLock() {
		if e.waiting.Load() == 0 {
			e.linkUpTurn(r)
			e.flushOut()
			e.turnMu.Unlock()
			return
		}
		e.turnMu.Unlock()
	}
	e.postEvent(func(API) { e.linkUpTurn(r) })
}

// linkDown tears r's failed link down in a turn of its own, on the same
// terms as linkUp: run by the receiver goroutine itself when the token is
// free, no turn waits and the link's ring is empty — so nothing it carried
// is still to be switched — and posted to the engine goroutine otherwise.
// Once Stop has marked the engine stopping — read under mu, as handshake
// reads it — the turn is posted, for Stop to drop with every other queued
// turn. Like a posted turn the engine goroutine has already begun, one
// begun here before Stop finishes while Stop runs.
func (e *Engine) linkDown(r *receiver) {
	if e.waiting.Load() == 0 && r.ring.Len() == 0 && e.turnMu.TryLock() {
		e.mu.Lock()
		stopping := e.stopping
		e.mu.Unlock()
		if e.waiting.Load() == 0 && !stopping {
			e.receiverGone(r)
			e.flushOut()
			e.turnMu.Unlock()
			return
		}
		e.turnMu.Unlock()
	}
	e.postEvent(func(API) { e.receiverGone(r) })
}

// linkUpTurn is the turn that brings r's link up: the algorithm's LinkUp,
// then the link's data. What a posted LinkUp made wait in the ring gets a
// switch pass of its own, since the pass that found it may have come first.
func (e *Engine) linkUpTurn(r *receiver) {
	var b [protocol.LinkEventSize]byte
	e.notifyAlg(protocol.TypeLinkUp, 0,
		protocol.LinkEvent{Peer: r.peer, Upstream: true}.Append(b[:0]))
	r.up = true
	if r.ring.Len() > 0 {
		e.signalWork()
	}
}

// observerLink is the node's control link to the observer (or its proxy):
// status reports and traces flow out, bootstrap replies and control
// commands flow in.
type observerLink struct {
	*Link
	peer message.NodeID // the observer this link registered with
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
		// Attribute to the observer this link registered with — after a
		// failover that is no longer the head of the list.
		e.deliverControl(m, o.peer)
	}
}
