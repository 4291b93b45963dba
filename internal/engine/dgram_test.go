package engine_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// dgramNode boots an engine in datagram-data mode over the shared vnet.
func dgramNode(t *testing.T, n *vnet.Network, id message.NodeID, alg engine.Algorithm, mut ...func(*engine.Config)) *engine.Engine {
	t.Helper()
	return startNode(t, n, id, alg, append([]func(*engine.Config){
		func(c *engine.Config) { c.DatagramData = true },
	}, mut...)...)
}

// TestDatagramDataFlows moves the data lane onto the vnet packet
// endpoints and checks a source still reaches its sink — and that the
// bytes genuinely rode datagrams (the sink's ring was fed by the packet
// reader, not the stream receiver).
func TestDatagramDataFlows(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7

	sink := &recorder{}
	b := startNode(t, n, nid(2), sink, func(c *engine.Config) { c.DatagramData = true })

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := dgramNode(t, n, nid(1), src)
	a.StartSource(app, 0, 1024)

	waitFor(t, 5*time.Second, "sink to receive datagram data", func() bool {
		return sink.ReceivedBytes(app) > 100*1024
	})
	if got := sink.SeenMessages(app); got == 0 {
		t.Error("sink saw no messages")
	}
	if c := b.Counters(); c.DgramBad != 0 || c.DgramNoLink != 0 {
		t.Errorf("clean run counted bad=%d nolink=%d datagrams", c.DgramBad, c.DgramNoLink)
	}
}

// TestDatagramFragmentedDelivery sends messages several times the MTU:
// they must fragment, reassemble, and arrive intact.
func TestDatagramFragmentedDelivery(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 3

	sink := &recorder{}
	startNode(t, n, nid(2), sink, func(c *engine.Config) { c.DatagramData = true })

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := dgramNode(t, n, nid(1), src)
	a.StartSource(app, 0, 8192) // 6 fragments at the default MTU

	waitFor(t, 5*time.Second, "sink to reassemble fragmented messages", func() bool {
		return sink.SeenMessages(app) >= 50
	})
	if got, want := sink.ReceivedBytes(app), int64(50*8192); got < want {
		t.Errorf("received %d bytes across 50 messages, want >= %d", got, want)
	}
}

// TestDatagramOversizeRefused: a message past the fragment budget is
// refused with a counted error; the link survives and smaller traffic
// keeps flowing.
func TestDatagramOversizeRefused(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 5

	sink := &recorder{}
	startNode(t, n, nid(2), sink, func(c *engine.Config) { c.DatagramData = true })

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := dgramNode(t, n, nid(1), src)

	over := message.MaxFragments*(message.DefaultDgramMTU-message.DgramHeaderSize) + 1
	a.Do(func(api engine.API) { // Send is engine-goroutine only
		api.SendNew(message.New(message.FirstDataType, nid(1), app, 1, make([]byte, over)), nid(2))
		api.SendNew(message.New(message.FirstDataType, nid(1), app, 2, make([]byte, 512)), nid(2))
	})

	waitFor(t, 5*time.Second, "small message to survive the oversize refusal", func() bool {
		return sink.SeenMessages(app) >= 1
	})
	waitFor(t, 5*time.Second, "oversize refusal to be counted", func() bool {
		return a.Counters().DgramRefused == 1
	})
	if got := sink.ReceivedBytes(app); got >= int64(over) {
		t.Errorf("sink received %d bytes, oversize message should have been refused", got)
	}
}

// TestDatagramSurvivesLoss runs a lossy link (5% seeded drop) and checks
// the stream keeps flowing with bounded loss — no deadlock, no link
// teardown, and delivery lands within the statistical ballpark.
func TestDatagramSurvivesLoss(t *testing.T) {
	n := vnet.New(vnet.WithSeed(11))
	defer n.Close()
	const app = 9
	n.DgramFaults(nid(1).Addr(), nid(2).Addr(), 0.05, 0, 0)

	sink := &recorder{}
	startNode(t, n, nid(2), sink, func(c *engine.Config) { c.DatagramData = true })

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := dgramNode(t, n, nid(1), src)
	a.StartSource(app, 2<<20, 1024) // paced: loss must come from the faults, not ring overflow

	waitFor(t, 10*time.Second, "sink to stream through 5% loss", func() bool {
		return sink.SeenMessages(app) >= 1000
	})
}

// TestDatagramDuplicatesAndReorder: the reassembler and data path must
// tolerate duplicated and reordered packets without corruption; with
// single-fragment messages a duplicate may surface as a duplicate
// message (datagram semantics), never as a mangled one.
func TestDatagramDuplicatesAndReorder(t *testing.T) {
	n := vnet.New(vnet.WithSeed(13))
	defer n.Close()
	const app = 4
	n.DgramFaults(nid(1).Addr(), nid(2).Addr(), 0, 0.2, 0.2)

	sink := &recorder{}
	startNode(t, n, nid(2), sink, func(c *engine.Config) { c.DatagramData = true })

	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := dgramNode(t, n, nid(1), src)
	a.StartSource(app, 1<<20, 4000) // 3 fragments each, paced

	waitFor(t, 10*time.Second, "sink to stream through dup+reorder", func() bool {
		return sink.SeenMessages(app) >= 300
	})
}

// TestDatagramStrangerDropped sprays well-formed frames from a source
// that never completed a hello handshake: nothing may reach the
// algorithm, and the drops are counted.
func TestDatagramStrangerDropped(t *testing.T) {
	nw := vnet.New()
	defer nw.Close()
	const app = 6

	sink := &recorder{}
	b := startNode(t, nw, nid(2), sink, func(c *engine.Config) { c.DatagramData = true })

	// A raw packet endpoint with no engine and no handshake behind it.
	stranger, err := nw.ListenPacket("10.9.9.9:7000")
	if err != nil {
		t.Fatal(err)
	}
	fake := message.MakeID("10.9.9.9", 7000)
	m := message.New(message.FirstDataType, fake, app, 1, []byte("intruder"))
	var wire bytes.Buffer
	if _, err := m.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	frame := message.AppendDgram(nil,
		message.DgramHeader{Src: fake, MsgID: 1, FragCnt: 1}, wire.Bytes())
	for i := 0; i < 20; i++ {
		if _, err := stranger.WriteTo(frame, vnet.Addr(nid(2).Addr())); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, "stranger datagrams to be counted dropped", func() bool {
		return b.Counters().DgramNoLink >= 20
	})
	if got := sink.SeenMessages(app); got != 0 {
		t.Errorf("algorithm processed %d stranger messages, want 0", got)
	}
}

// TestDatagramGarbageCounted: malformed packets at the port are counted
// and ignored without disturbing the node — while one of its receiver
// rings is full. The relay's link onward is capped, so back-pressure stops
// its switch and the ring fed by the source stays full; the shared
// endpoint must keep draining, dropping that link's overflow, or the
// garbage queued behind it is never read.
func TestDatagramGarbageCounted(t *testing.T) {
	nw := vnet.New()
	defer nw.Close()
	const app = 8

	startNode(t, nw, nid(3), &recorder{})
	relay := &recorder{}
	relay.DefaultRoutes = []message.NodeID{nid(3)}
	b := dgramNode(t, nw, nid(2), relay)
	capLink(b, nid(3), 1<<10)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := dgramNode(t, nw, nid(1), src)
	a.StartSource(app, 1<<20, 1024)
	waitFor(t, 10*time.Second, "the relay to drop overflow at a full ring", func() bool {
		return b.Counters().MsgsDropped > 0
	})

	stranger, err := nw.ListenPacket("10.9.9.8:7000")
	if err != nil {
		t.Fatal(err)
	}
	for _, junk := range [][]byte{
		[]byte("not a datagram frame at all"),
		make([]byte, message.DgramHeaderSize), // header-only, no chunk
		{0xD6},                                // one byte
	} {
		if _, err := stranger.WriteTo(junk, vnet.Addr(nid(2).Addr())); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "garbage to be counted", func() bool {
		return b.Counters().DgramBad >= 3
	})
}

// streamOnly wraps the vnet transport hiding its PacketTransport side.
type streamOnly struct{ v engine.VNet }

func (s streamOnly) Listen(addr string) (net.Listener, error) { return s.v.Listen(addr) }
func (s streamOnly) DialFrom(local, addr string, timeout time.Duration) (net.Conn, error) {
	return s.v.DialFrom(local, addr, timeout)
}

// TestDatagramRequiresPacketTransport: DatagramData with a stream-only
// transport is a construction error, as is an undersized MTU.
func TestDatagramRequiresPacketTransport(t *testing.T) {
	nw := vnet.New()
	defer nw.Close()
	_, err := engine.New(engine.Config{
		ID:           nid(1),
		Transport:    streamOnly{engine.VNet{Net: nw}},
		Algorithm:    &recorder{},
		DatagramData: true,
	})
	if err == nil {
		t.Error("DatagramData over a stream-only transport accepted")
	}
	_, err = engine.New(engine.Config{
		ID:           nid(1),
		Transport:    engine.VNet{Net: nw},
		Algorithm:    &recorder{},
		DatagramData: true,
		DatagramMTU:  10,
	})
	if err == nil {
		t.Error("undersized DatagramMTU accepted")
	}
}
