package engine_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/multicast"
	"repro/internal/protocol"
	"repro/internal/vnet"
)

// pace injects burst data messages of size bytes toward dest every tick,
// the way the repository benchmark's generator does, until stop is closed.
// Every tick posts the same closure, which numbers the messages itself: it
// only ever runs in a turn, one at a time.
func pace(e *engine.Engine, dest message.NodeID, app uint32, burst, size int, tick time.Duration, stop <-chan struct{}) {
	seq := uint32(0)
	dests := []message.NodeID{dest} // passed on as is: a variadic list built per call allocates
	send := func(api engine.API) {
		for i := 0; i < burst; i++ {
			api.SendNew(api.NewMsg(message.FirstDataType, app, seq, size), dests...)
			seq++
		}
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		e.Do(send)
	}
}

// TestUnloadedHopTakesFastPath is the tripwire on both fast paths, on both
// data lanes. On an unloaded 3-node chain paced like the benchmark nearly
// every message at the middle node is switched by the goroutine that
// decoded it — the stream receiver, or the packet reader — and written by
// the turn that switched it; when the middle node's downstream link is
// shaped below the offered rate the turn may not write a single message
// over it, because the link's backlog is the back-pressure signal.
func TestUnloadedHopTakesFastPath(t *testing.T) {
	t.Run("unloaded", func(t *testing.T) {
		for lane, dgram := range lanes {
			t.Run(lane, func(t *testing.T) {
				n := vnet.New()
				defer n.Close()
				const app = 1
				mode := func(c *engine.Config) { c.DatagramData = dgram }
				sink := &multicast.Forwarder{}
				startNode(t, n, nid(3), sink, mode)
				mid := startNode(t, n, nid(2), &multicast.Forwarder{DefaultRoutes: []message.NodeID{nid(3)}}, mode)
				src := startNode(t, n, nid(1), &multicast.Forwarder{}, mode)

				// Both links come up before the paced load starts. Batches
				// that reach the middle node while its downstream link is
				// still dialling fill that link's ring and park the rest, and
				// until the parked backlog drains every later batch queues
				// behind it through the rings. Under the race detector at one
				// core the chain has no idle time left to drain it, so a
				// backlog from set-up could hold the middle node off its fast
				// paths for the whole window.
				src.Do(func(api engine.API) {
					api.SendNew(api.NewMsg(message.FirstDataType, app, 0, 64), nid(2))
				})
				waitFor(t, 10*time.Second, "the links to come up", func() bool {
					return sink.SeenMessages(app) >= 1
				})
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					pace(src, nid(2), app, 40, 64, time.Millisecond, stop)
				}()
				waitFor(t, 10*time.Second, "the paced load to reach the sink", func() bool {
					return sink.SeenMessages(app) >= 400
				})
				before := mid.Counters()
				waitFor(t, 20*time.Second, "20 000 paced messages to cross the chain", func() bool {
					return sink.SeenMessages(app) >= 20400
				})
				after := mid.Counters()
				close(stop)
				<-done

				expectFastPaths(t, before, after)
			})
		}
	})
	t.Run("shaped", func(t *testing.T) {
		for lane, dgram := range lanes {
			t.Run(lane, func(t *testing.T) {
				// Fig 6's shape on one path: 5-slot rings, a shallow pipe, and
				// the middle node's downstream link capped below what the
				// source offers.
				n := vnet.New(vnet.WithPipeCapacity(4 << 10))
				defer n.Close()
				const app, linkCap = 1, 30 << 10
				small := func(c *engine.Config) { c.RecvBuf, c.SendBuf, c.DatagramData = 5, 5, dgram }
				startNode(t, n, nid(3), &multicast.Forwarder{}, small)
				mid := startNode(t, n, nid(2), &multicast.Forwarder{DefaultRoutes: []message.NodeID{nid(3)}}, small)
				capLink(mid, nid(3), linkCap)
				src := startNode(t, n, nid(1), &multicast.Forwarder{DefaultRoutes: []message.NodeID{nid(2)}}, small)
				var offered int64 // back to back
				if dgram {
					// Nothing pushes back on a datagram source: the middle
					// node's full ring drops what the link cannot carry. Offer
					// four times the cap, not all the source can make.
					offered = 4 * linkCap
				}
				src.StartSource(app, offered, 1024)

				time.Sleep(time.Second) // settle: rings, parked backlog and pipes fill back to the source
				const window = 2 * time.Second
				b0, s0 := mid.Counters(), src.Counters()
				time.Sleep(window)
				b1, s1 := mid.Counters(), src.Counters()
				rates := map[string]float64{"shaped link": float64(b1.BytesOut-b0.BytesOut) / window.Seconds()}
				if !dgram {
					rates["source output"] = float64(s1.BytesOut-s0.BytesOut) / window.Seconds()
				}
				for name, got := range rates {
					if got < linkCap*3/4 || got > linkCap*5/4 {
						t.Errorf("%s = %.1f KBps, want %.1f (±25%%): back-pressure does not hold the path at the link's rate", name, got/1024, float64(linkCap)/1024)
					}
				}
				if b1.WrittenInline != 0 {
					t.Errorf("%d messages written inline over a shaped link, want 0: the link's backlog is the back-pressure signal", b1.WrittenInline)
				}
				t.Logf("middle node: %d written by the sender goroutine, %d switched inline, %d via ring",
					b1.WrittenBySender, b1.SwitchedInline, b1.SwitchedViaRing)
			})
		}
	})
}

// expectFastPaths fails unless at least 90 % of the messages the middle
// node of a chain handled between two snapshots of its counters were
// switched inline, and as many written inline. A share above 100 % is a
// counter that ran backwards between the snapshots.
func expectFastPaths(t *testing.T, before, after metrics.CountersSnapshot) {
	t.Helper()
	written := share(after.WrittenInline-before.WrittenInline, after.WrittenBySender-before.WrittenBySender)
	switched := share(after.SwitchedInline-before.SwitchedInline, after.SwitchedViaRing-before.SwitchedViaRing)
	t.Logf("middle node: %.1f%% switched inline, %.1f%% written inline", 100*switched, 100*written)
	for _, c := range []struct {
		what  string
		share float64
	}{{"written", written}, {"switched", switched}} {
		if c.share < 0.9 || c.share > 1 {
			t.Errorf("%.1f%% of messages %s inline at the middle node, want 90–100%%", 100*c.share, c.what)
		}
	}
}

// TestFastPathReturnsAfterSetUpBurst: the source of a 3-node chain sends a
// burst before either link is up, so the middle node's downstream link
// parks most of it while it dials, and then paces the load
// TestUnloadedHopTakesFastPath paces. The parked backlog is back-pressure
// at work and keeps the middle node off its fast paths while it lasts; it
// must not outlast the burst. Within a few thousand paced messages the
// middle node switches and writes inline again: the backlog leaves by the
// turn's own write as soon as the link's ring is idle, rather than holding
// every later batch behind it on the ring path.
func TestFastPathReturnsAfterSetUpBurst(t *testing.T) {
	for lane, dgram := range lanes {
		t.Run(lane, func(t *testing.T) {
			n := vnet.New()
			defer n.Close()
			const app, burst = 1, 400
			mode := func(c *engine.Config) { c.DatagramData = dgram }
			// The sink's rings hold the burst: on the datagram lane a full
			// ring is loss, and what is under test is the middle node.
			sink := &multicast.Forwarder{}
			startNode(t, n, nid(3), sink, mode, func(c *engine.Config) { c.RecvBuf = burst })
			mid := startNode(t, n, nid(2), &multicast.Forwarder{DefaultRoutes: []message.NodeID{nid(3)}}, mode)
			src := startNode(t, n, nid(1), &multicast.Forwarder{}, mode)

			src.Do(func(api engine.API) {
				for i := 0; i < burst; i++ {
					api.SendNew(api.NewMsg(message.FirstDataType, app, 0, 64), nid(2))
				}
			})
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				pace(src, nid(2), app, 40, 64, time.Millisecond, stop)
			}()
			defer func() { close(stop); <-done }()
			waitFor(t, 20*time.Second, "the burst and the first paced messages to reach the sink", func() bool {
				return sink.SeenMessages(app) >= 3300
			})
			before := mid.Counters()
			waitFor(t, 20*time.Second, "2 500 more paced messages to cross the chain", func() bool {
				return sink.SeenMessages(app) >= 5800
			})
			expectFastPaths(t, before, mid.Counters())
		})
	}
}

// share is a/(a+b), zero when both are.
func share(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// barrier returns once a turn posted after everything already posted to e
// has run — so the flush that ended each earlier turn has, too.
func barrier(e *engine.Engine) {
	done := make(chan struct{})
	e.Do(func(engine.API) { close(done) })
	<-done
}

// expectInOrder fails unless the sink's data arrivals are 0..count-1.
func expectInOrder(t *testing.T, arrivals []uint32, count int) {
	t.Helper()
	if len(arrivals) != count {
		t.Fatalf("%d arrivals, want %d", len(arrivals), count)
	}
	for i, seq := range arrivals {
		if seq != uint32(i) {
			t.Fatalf("arrival %d has sequence number %d: per-destination order broken", i, seq)
		}
	}
}

// TestInlineWriteTailKeepsFIFO: the pipe is smaller than one staged run, so
// the turn's own write takes a prefix and the tail rides the ring to the
// sender goroutine — and, the ring being smaller still, the parked backlog —
// while the next turns stage more behind it. Every path carries traffic, and
// arrival order is send order: nothing overtakes what is queued or parked.
func TestInlineWriteTailKeepsFIFO(t *testing.T) {
	n := vnet.New(vnet.WithPipeCapacity(4 << 10))
	defer n.Close()
	const app, burst, bursts = 1, 24, 40 // a burst is 12.6 KB of wire against a 4 KiB pipe

	sink := &orderSink{}
	startNode(t, n, nid(2), sink)
	a := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) { c.SendBuf = 8 })
	a.Do(func(api engine.API) { sendData(api, nid(2), app, 0, 1) })
	waitFor(t, 5*time.Second, "the link to come up", func() bool { return len(sink.arrivals()) == 1 })

	var parkedPeak atomic.Uint32 // sampled at the start of each turn: what the previous one left parked
	for b := 0; b < bursts; b++ {
		first := uint32(1 + b*burst)
		a.Do(func(api engine.API) {
			parkedPeak.Store(max(parkedPeak.Load(), a.Snapshot().Shards[0].Parked))
			sendData(api, nid(2), app, first, burst)
		})
		if b%4 == 3 {
			// Let the link drain now and then, so later bursts find it idle
			// again and the hand-over happens more than once.
			waitFor(t, 5*time.Second, "the link to drain", func() bool { return len(sink.arrivals()) == int(first)+burst })
		}
	}
	const total = 1 + burst*bursts
	waitFor(t, 10*time.Second, "everything to arrive", func() bool { return len(sink.arrivals()) >= total })
	expectInOrder(t, sink.arrivals(), total)
	c := a.Counters()
	if c.WrittenInline == 0 || c.WrittenBySender == 0 || parkedPeak.Load() == 0 {
		t.Errorf("written inline %d, by the sender goroutine %d, parked peak %d: the test must exercise the hand-over between all three",
			c.WrittenInline, c.WrittenBySender, parkedPeak.Load())
	}
	if c.MsgsDropped != 0 {
		t.Errorf("%d messages dropped", c.MsgsDropped)
	}
}

// stallTransport is a vnet transport that holds every dial until dial
// opens, and stalls the sender goroutine's write until gate opens while the
// turn's own write goes straight through: on the stream lane every blocking
// vectored write waits and the try form does not; on the datagram lane the
// endpoint's first batch send waits — the sender goroutine's, as the turn
// cannot send before the link is up — and later ones do not, so a turn that
// wrongly sends past a held batch fails the test instead of hanging it. A
// sender goroutine stalled on a full vnet pipe would not do: the pipe itself
// refuses a try-write while a blocking one waits, and the test is about the
// rule one layer up.
type stallTransport struct {
	engine.VNet
	dial, gate chan struct{}
}

func (s stallTransport) DialFrom(local, addr string, timeout time.Duration) (net.Conn, error) {
	<-s.dial
	c, err := s.VNet.DialFrom(local, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: c.(*vnet.Conn), gate: s.gate}, nil
}

func (s stallTransport) ListenPacket(addr string) (net.PacketConn, error) {
	pc, err := s.VNet.ListenPacket(addr)
	if err != nil {
		return nil, err
	}
	return &stallPacketConn{PacketConn: pc.(*vnet.PacketConn), gate: s.gate}, nil
}

type stallConn struct {
	*vnet.Conn
	gate chan struct{}
}

func (c *stallConn) WriteBuffers(bufs [][]byte) (int64, error) {
	<-c.gate
	return c.Conn.WriteBuffers(bufs)
}

type stallPacketConn struct {
	*vnet.PacketConn
	gate  chan struct{}
	sends atomic.Int32
}

func (c *stallPacketConn) WriteToBatch(bufs [][]byte, to net.Addr) (int, error) {
	if c.sends.Add(1) == 1 {
		<-c.gate
	}
	return c.PacketConn.WriteToBatch(bufs, to)
}

// TestHeldBatchBlocksInlineWrite: the sender goroutine has popped a batch
// and is stalled in the middle of writing it, so the ring is empty — and not
// idle. The pipe has room and would take a try-write; the next run must
// queue behind the batch all the same, not be written past it by the turn.
func TestHeldBatchBlocksInlineWrite(t *testing.T) { heldBatchBlocksInlineWrite(t, false) }

// TestHeldDatagramBatchBlocksInlineWrite is the same on the datagram lane:
// the held batch is framed into the sender goroutine's arena and stalled in
// its batch send, and the endpoint would take the turn's.
func TestHeldDatagramBatchBlocksInlineWrite(t *testing.T) { heldBatchBlocksInlineWrite(t, true) }

func heldBatchBlocksInlineWrite(t *testing.T, dgram bool) {
	n := vnet.New()
	defer n.Close()
	const app, first, second = 1, 5, 5

	sink := &orderSink{}
	startNode(t, n, nid(2), sink, func(c *engine.Config) { c.DatagramData = dgram })
	dial, gate := make(chan struct{}), make(chan struct{})
	a := startNode(t, n, nid(1), &recorder{}, func(c *engine.Config) {
		c.Transport = stallTransport{VNet: engine.VNet{Net: n}, dial: dial, gate: gate}
		c.DatagramData = dgram
	})
	open := func(c chan struct{}) {
		select {
		case <-c:
		default:
			close(c)
		}
	}
	t.Cleanup(func() { open(dial); open(gate) }) // before Stop, even on a failed wait
	ringLen := func() uint32 {
		for _, l := range a.Snapshot().Downstream { // lists a link once it is up
			if l.Peer == nid(2) {
				return l.BufLen
			}
		}
		return ^uint32(0)
	}
	// Queued while the link dials — held until the run is in the ring, or a
	// dial that wins the race with the turn's flush lets the turn write the
	// run itself — then popped in one batch and stalled at the gate.
	a.Do(func(api engine.API) { sendData(api, nid(2), app, 0, first) })
	barrier(a)
	open(dial)
	waitFor(t, 5*time.Second, "the sender goroutine to pop the first run", func() bool { return ringLen() == 0 })

	a.Do(func(api engine.API) { sendData(api, nid(2), app, first, second) })
	barrier(a)
	if c := a.Counters(); c.WrittenInline != 0 {
		t.Errorf("%d messages written inline past a popped, unwritten batch", c.WrittenInline)
	}
	if got := ringLen(); got != second {
		t.Errorf("sender ring holds %d messages, want the %d of the second run", got, second)
	}
	if got := len(sink.arrivals()); got != 0 {
		t.Errorf("%d messages arrived with the first batch still held", got)
	}

	open(gate)
	waitFor(t, 10*time.Second, "everything to arrive", func() bool { return len(sink.arrivals()) >= first+second })
	expectInOrder(t, sink.arrivals(), first+second)
	// With the batch written and the hold released, the turn writes again.
	seq := uint32(first + second)
	waitFor(t, 5*time.Second, "a run on the idle link to be written inline", func() bool {
		next := seq
		a.Do(func(api engine.API) { sendData(api, nid(2), app, next, 1) })
		seq++
		return a.Counters().WrittenInline > 0
	})
}

// rawLink dials node as from, completes the hello exchange and returns the
// connection: a link whose wire content the test decides byte by byte.
func rawLink(t *testing.T, n *vnet.Network, from, node message.NodeID) net.Conn {
	t.Helper()
	conn := rawDial(t, n, from.Addr(), node)
	writeHello(t, conn, from)
	expectWelcome(t, conn, 2*time.Second)
	return conn
}

// dataFrame renders one data message's wire image.
func dataFrame(from message.NodeID, app, seq uint32, size int) []byte {
	m := message.New(message.FirstDataType, from, app, seq, make([]byte, size))
	defer m.Release()
	return append(m.AppendHeader(nil), m.Payload()...)
}

// TestControlAheadOnTheWireBeatsInlineData is the receiver-side twin of
// TestControlOvertakesStagedData. A control message and the data behind it
// arrive in one read: the control crosses the inbox to the engine
// goroutine, the data could be switched by the receiver goroutine on the
// spot. The receiver must see that control is waiting and queue the data
// behind it — every round, not most of them.
func TestControlAheadOnTheWireBeatsInlineData(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, rounds, perRound = 1, 200, 8

	sink := &orderSink{}
	b := startNode(t, n, nid(2), sink)
	conn := rawLink(t, n, nid(1), nid(2))
	// A warm-up message first, so every round meets a link that is up.
	if _, err := conn.Write(dataFrame(nid(1), app, 0, 64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the warm-up message", func() bool { return len(sink.arrivals()) == 1 })

	ctrl := message.New(protocol.TypeCustom, nid(1), 0, 0, protocol.Custom{Kind: 1}.Encode())
	defer ctrl.Release()
	ctrlFrame := append(ctrl.AppendHeader(nil), ctrl.Payload()...)
	seq := uint32(1)
	for r := 0; r < rounds; r++ {
		wire := append([]byte(nil), ctrlFrame...)
		for i := 0; i < perRound; i++ {
			wire = append(wire, dataFrame(nid(1), app, seq, 64)...)
			seq++
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		want := 1 + (r+1)*(perRound+1)
		waitFor(t, 5*time.Second, "the round to be processed", func() bool { return len(sink.arrivals()) == want })
		if got := sink.arrivals()[want-perRound-1]; got != ctrlMark {
			t.Fatalf("round %d: %v processed first, want the control message that was ahead of the data on the wire", r, got)
		}
	}
	if c := b.Counters(); c.SwitchedInline != 0 {
		// Every data batch here arrived right behind a control message.
		t.Logf("%d messages switched inline after their round's control had run", c.SwitchedInline)
	}
}

// linkOrderSink notes, per upstream peer, whether the algorithm saw the
// link's LinkUp before the first data message the peer sent over it.
type linkOrderSink struct {
	multicast.Forwarder
	mu    sync.Mutex
	up    map[message.NodeID]bool
	data  int
	early []message.NodeID // peers whose data came before their LinkUp
}

func (s *linkOrderSink) Process(m *message.Msg) engine.Verdict {
	s.mu.Lock()
	switch {
	case m.Type() == protocol.TypeLinkUp:
		if le, err := protocol.DecodeLinkEvent(m.Payload()); err == nil && le.Upstream {
			s.up[le.Peer] = true
		}
	case m.IsData():
		s.data++
		if !s.up[m.Sender()] {
			s.early = append(s.early, m.Sender())
		}
	}
	s.mu.Unlock()
	return s.Forwarder.Process(m)
}

func (s *linkOrderSink) seen() (data int, early []message.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data, append([]message.NodeID(nil), s.early...)
}

// openAndSend dials node as from, writes the hello and, the moment the
// Welcome is read, the data frame: the link's first data is on the wire as
// early as a dialer can put it there.
func openAndSend(n *vnet.Network, from, node message.NodeID, frame []byte) (net.Conn, error) {
	conn, err := n.DialFrom(from.Addr(), node.Addr())
	if err != nil {
		return nil, err
	}
	hello := message.New(protocol.TypeHello, from, 0, 0, nil)
	_, err = hello.WriteTo(conn)
	hello.Release()
	if err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var m *message.Msg
		if m, err = message.Read(conn, nil, 256); err == nil {
			if m.Type() != protocol.TypeWelcome {
				err = fmt.Errorf("reply = %s frame, want welcome", protocol.TypeName(m.Type()))
			}
			m.Release()
		}
	}
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// TestLinkUpPrecedesFirstData: the algorithm sees a link come up before
// anything the link carries, however early the dialer sends — here the
// moment it reads the Welcome, on 200 links opened four at a time, so that
// some LinkUps and first batches find the token free and others find it
// taken. The guarantee must not cost the fast path: a link's first batch
// may be switched by the receiver that decoded it, and on an idle node one
// is.
func TestLinkUpPrecedesFirstData(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, links, dialers = 1, 200, 4

	sink := &linkOrderSink{up: make(map[message.NodeID]bool)}
	b := startNode(t, n, nid(250), sink, func(c *engine.Config) { c.Admission.MaxHandshakes = -1 })
	frames := make([][]byte, links)
	for i := range frames {
		frames[i] = dataFrame(nid(i+1), app, 0, 64)
	}
	conns := make([]net.Conn, links)
	errs := make(chan error, links)
	var wg sync.WaitGroup
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < links; i += dialers {
				conn, err := openAndSend(n, nid(i+1), nid(250), frames[i])
				if err != nil {
					errs <- fmt.Errorf("link %d: %w", i+1, err)
					return
				}
				conns[i] = conn
			}
		}(d)
	}
	wg.Wait()
	for _, c := range conns {
		if c != nil {
			defer c.Close()
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "one message from every link", func() bool {
		data, _ := sink.seen()
		return data == links
	})
	c := b.Counters()
	t.Logf("%d links opened %d at a time: first batches switched inline %d, via the ring %d",
		links, dialers, c.SwitchedInline, c.SwitchedViaRing)
	// Then links one at a time, on an otherwise idle node, until one's first
	// batch is switched inline (a status tick can be in the way).
	for i := 1; c.SwitchedInline == 0; i++ {
		if i > 50 {
			t.Fatalf("switched inline %d, via ring %d: no link's first batch was switched inline", c.SwitchedInline, c.SwitchedViaRing)
		}
		from := message.MakeID(fmt.Sprintf("10.0.1.%d", i), 7000)
		conn, err := openAndSend(n, from, nid(250), dataFrame(from, app, 0, 64))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		waitFor(t, 5*time.Second, "the link's message", func() bool {
			data, _ := sink.seen()
			return data == links+i
		})
		c = b.Counters()
	}
	if _, early := sink.seen(); len(early) > 0 {
		t.Errorf("%d links had data processed before their LinkUp, first %s", len(early), early[0])
	}
}

// TestInlineWriteErrorKillsLinkOnce: the peer dies between turns, with the
// link idle and the sender goroutine asleep. The turn's own write is the
// first to meet the dead connection; it must leave the messages to the
// sender goroutine, whose error path counts each one lost and reports the
// link down exactly once.
func TestInlineWriteErrorKillsLinkOnce(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, lost = 1, 10

	sink := &orderSink{}
	startNode(t, n, nid(2), sink)
	alg := &recorder{}
	a := startNode(t, n, nid(1), alg)
	// Warm the link until the turn itself is writing it and the sender
	// goroutine is asleep on an idle ring.
	seq := uint32(0)
	waitFor(t, 5*time.Second, "the warm link to write inline", func() bool {
		next := seq
		a.Do(func(api engine.API) { sendData(api, nid(2), app, next, 1) })
		seq++
		return a.Counters().WrittenInline > 0
	})
	waitFor(t, 5*time.Second, "the warm-up to arrive", func() bool { return len(sink.arrivals()) == int(seq) })
	warm := a.Counters()

	n.CrashNode(nid(2).Addr())
	a.Do(func(api engine.API) { sendData(api, nid(2), app, seq, lost) })
	waitFor(t, 5*time.Second, "the link to be reported down", func() bool {
		return alg.count(protocol.TypeLinkDown) > 0
	})
	barrier(a)
	if downs := alg.count(protocol.TypeLinkDown); downs != 1 {
		t.Errorf("%d LinkDown notifications, want exactly 1", downs)
	}
	c := a.Counters()
	if c.MsgsDropped != lost {
		t.Errorf("MsgsDropped = %d, want the %d messages that did not land", c.MsgsDropped, lost)
	}
	if c.WrittenInline != warm.WrittenInline || c.WrittenBySender != warm.WrittenBySender {
		t.Errorf("written inline %d -> %d, by the sender goroutine %d -> %d across the crash: nothing landed on the dead link",
			warm.WrittenInline, c.WrittenInline, warm.WrittenBySender, c.WrittenBySender)
	}
	a.Stop()
	if got := a.BufferedBytes(); got != 0 {
		t.Errorf("BufferedBytes = %d after Stop, want 0", got)
	}
}
