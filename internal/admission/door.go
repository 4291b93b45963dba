package admission

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// DefaultHelloTimeout bounds how long an accepted connection may take to
// identify itself with a hello; its admission token is held for at most
// that window.
const DefaultHelloTimeout = 10 * time.Second

// replyWriteTimeout bounds the write of an admission reply — Busy or
// Welcome — so a stalled dialer can pin neither a Busy writer goroutine
// nor a handshake token.
const replyWriteTimeout = 100 * time.Millisecond

// maxBusyWriters bounds concurrent Busy-frame writer goroutines; refusals
// past the bound are closed silently (the dialer treats the hangup as a
// failed attempt, so only the hint is lost).
const maxBusyWriters = 64

// Transient Accept errors (EMFILE, ECONNABORTED) are retried after a
// capped doubling delay instead of taking the listener off the network.
const (
	acceptRetryBase = 5 * time.Millisecond
	acceptRetryMax  = 500 * time.Millisecond
)

// Handler takes over an admitted, identified connection: peer and app are
// the hello's sender and App field. The handler owns conn from here on, and
// may keep the door's goroutine for as long as the connection lives — an
// engine's handler becomes the link's receiver, an observer's or a proxy's
// its read loop. The connection's gate token is held until the handler
// returns or calls tok.Release, whichever comes first; a handler that stays
// calls it once its reply is written.
type Handler func(conn net.Conn, peer message.NodeID, app uint32, tok *Token)

// Token is an admitted connection's hold on a gate slot, and the door's
// whole state for its handshake in one object: the connection, its
// handler and the buffer its hello is read into.
type Token struct {
	door     *Door
	conn     net.Conn
	handle   Handler
	released bool
	hello    [message.HeaderSize]byte
}

// Release hands the gate token back. It is idempotent and must stay on the
// handler's goroutine.
func (t *Token) Release() {
	if !t.released {
		t.released = true
		t.door.Gate.Release()
	}
}

// Door is the front door of a listener — an engine's publicized port, an
// observer's registration port, a proxy's node-facing port: it accepts,
// asks the gate, sheds what the gate refuses, reads the hello of what it
// admits, and hands the identified connection to the owner. Nothing on
// this path blocks on a ring or holds a lock across connection I/O: a
// refused connection costs one token-bucket update and at most one
// asynchronous Busy frame.
//
// The exported fields are set before AcceptLoop starts and not changed
// afterwards.
type Door struct {
	// Gate decides admissions; nil admits everything.
	Gate *Gate
	// Bypass, when set, names source hosts a standing policy admits
	// whatever the gate says — an observer's federation peers, which a
	// storm of joining nodes must never cut apart.
	Bypass func(host string) bool
	// ID is the sender identity of the Busy frames.
	ID message.NodeID
	// HelloTimeout bounds the hello read; zero selects DefaultHelloTimeout.
	HelloTimeout time.Duration
	// Counters and Rec take the accounting: accepted and shed connections,
	// accept retries and dead handshakes, each also a KindAccept event.
	Counters *metrics.Counters
	Rec      *trace.Recorder
	// Done is the owner's stop channel; WG counts every goroutine the door
	// starts, so the owner's Stop can wait them out.
	Done <-chan struct{}
	WG   *sync.WaitGroup

	busyWriters atomic.Int32

	// welcome is the bare Welcome header, rendered once by AcceptLoop.
	welcome []byte

	mu       sync.Mutex
	listener net.Listener
	greeting map[net.Conn]struct{} // admitted, hello not yet read
	closed   bool
}

// AcceptLoop admits connections from l until the listener is closed,
// running handle on its own goroutine for each connection that passed the
// gate and identified itself. Start it as wg.Add(1); go d.AcceptLoop(…):
// it calls WG.Done when it returns.
func (d *Door) AcceptLoop(l net.Listener, handle Handler) {
	defer d.WG.Done()
	d.welcome = message.New(protocol.TypeWelcome, d.ID, 0, 0, nil).AppendHeader(nil)
	d.mu.Lock()
	d.listener = l
	d.greeting = make(map[net.Conn]struct{})
	closed := d.closed
	d.mu.Unlock()
	if closed {
		_ = l.Close()
		return
	}
	delay := acceptRetryBase
	for {
		conn, err := l.Accept()
		if err != nil {
			if acceptClosed(err) {
				return
			}
			d.Counters.AddAcceptRetry()
			d.Rec.Emit(trace.KindAccept, message.NodeID{}, 0, int64(AcceptRetry))
			select {
			case <-d.Done:
				return
			case <-time.After(delay):
			}
			delay = min(2*delay, acceptRetryMax)
			continue
		}
		delay = acceptRetryBase
		host := SourceHost(conn.RemoteAddr())
		if d.Bypass != nil && d.Bypass(host) {
			d.Gate.Bypass()
		} else if dec, hint := d.Gate.Admit(host); dec != Admitted {
			d.Counters.AddConnShed()
			d.Rec.Emit(trace.KindAccept, message.NodeID{}, 0, int64(dec))
			switch dec {
			case ShedGreylist: // earns no reply at all
				_ = conn.Close()
			case ShedRate:
				d.Refuse(conn, protocol.BusyRate, hint)
			default:
				d.Refuse(conn, protocol.BusyHandshakes, hint)
			}
			continue
		}
		d.WG.Add(1)
		tok := &Token{door: d, conn: conn, handle: handle}
		go tok.handshake()
	}
}

// acceptClosed reports whether an Accept error means the listener itself
// is gone (closed by the owner, or torn down with the network) rather
// than a transient per-accept failure.
func acceptClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, vnet.ErrListenerClosed) ||
		errors.Is(err, vnet.ErrNetworkDown)
}

// SourceHost extracts the gate's source key from a remote address: the
// host alone, so every connection from one node shares a rate bucket
// whatever ephemeral port it dialed from.
func SourceHost(a net.Addr) string {
	s := a.String()
	if host, _, err := net.SplitHostPort(s); err == nil {
		return host
	}
	return s
}

// handshake reads the mandatory hello of an admitted connection and hands
// the identified connection over, on this goroutine. A hello that is
// malformed or late is counted and lands on the flight recorder instead of
// vanishing in a silent close. The gate token is held through the hello
// read and until the handler calls Release or returns, so MaxHandshakes
// bounds the connections still being set up exactly.
func (t *Token) handshake() {
	d, conn := t.door, t.conn
	defer d.WG.Done()
	defer t.Release()
	// Close interrupts the hello read through the greeting set.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_ = conn.Close()
		return
	}
	d.greeting[conn] = struct{}{}
	d.mu.Unlock()
	timeout := d.HelloTimeout
	if timeout <= 0 {
		timeout = DefaultHelloTimeout
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	peer, app, err := readHello(conn, &t.hello)
	d.mu.Lock()
	delete(d.greeting, conn)
	d.mu.Unlock()
	if err != nil {
		dec := BadHello
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			dec = Timeout
		}
		d.Counters.AddHandshakeFailed()
		d.Rec.Emit(trace.KindAccept, message.NodeID{}, 0, int64(dec))
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	t.handle(conn, peer, app, t)
}

// maxHelloPayload bounds the payload a hello may carry; a node's own hello
// is a bare header.
const maxHelloPayload = 256

// errNotHello marks a first frame that is not a hello, or one whose
// payload is past maxHelloPayload.
var errNotHello = errors.New("admission: first frame is not a hello")

// readHello reads the connection's first frame into hdr and returns the
// hello's sender and App field. A payload, if the frame carries one, is
// read and discarded.
func readHello(conn net.Conn, hdr *[message.HeaderSize]byte) (message.NodeID, uint32, error) {
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return message.NodeID{}, 0, err
	}
	size, _ := message.PeekPayloadLen(hdr[:])
	if size > maxHelloPayload {
		return message.NodeID{}, 0, errNotHello
	}
	if size > 0 {
		if _, err := io.ReadFull(conn, make([]byte, size)); err != nil {
			return message.NodeID{}, 0, err
		}
	}
	// The class tag is no part of the type: compare with it set on both.
	if message.Type(binary.BigEndian.Uint32(hdr[0:4])).AsControl() != protocol.TypeHello.AsControl() {
		return message.NodeID{}, 0, errNotHello
	}
	peer := message.NodeID{IP: binary.BigEndian.Uint32(hdr[4:8]), Port: binary.BigEndian.Uint32(hdr[8:12])}
	return peer, binary.BigEndian.Uint32(hdr[12:16]), nil
}

// Refuse answers conn with a one-frame Busy carrying the reason and the
// retry-after hint, then closes it — from a bounded goroutine with a
// write deadline, so a storm of refusals can neither block the caller nor
// balloon into a goroutine flood.
func (d *Door) Refuse(conn net.Conn, reason protocol.BusyReason, hint time.Duration) {
	if d.busyWriters.Add(1) > maxBusyWriters {
		d.busyWriters.Add(-1)
		_ = conn.Close()
		return
	}
	d.WG.Add(1)
	go func() {
		defer d.WG.Done()
		defer d.busyWriters.Add(-1)
		defer conn.Close()
		_ = conn.SetWriteDeadline(time.Now().Add(replyWriteTimeout))
		busy := message.New(protocol.TypeBusy, d.ID, 0, 0,
			protocol.Busy{Reason: reason, RetryAfterNanos: int64(hint)}.Encode())
		_, _ = busy.WriteTo(conn)
		busy.Release()
	}()
}

// Welcome answers an identified connection with the one reply frame that
// admits it: the dialer treats nothing short of this frame as admitted, so
// every link — engine, observer, proxy — opens in one round trip at any
// RTT. The owner writes it once its side of the link exists, and before
// anything else goes out on conn. A dialer that hung up or stalls the
// write gets conn closed and the error back.
func (d *Door) Welcome(conn net.Conn) error {
	_ = conn.SetWriteDeadline(time.Now().Add(replyWriteTimeout))
	if _, err := conn.Write(d.welcome); err != nil {
		_ = conn.Close()
		return err
	}
	_ = conn.SetWriteDeadline(time.Time{})
	return nil
}

// Close shuts the door: the listener, so AcceptLoop returns, and every
// connection still inside its hello read, so a half-open dialer cannot
// hold the owner's Stop for HelloTimeout. Connections already handed
// over are the owner's. Idempotent.
func (d *Door) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	if d.listener != nil {
		_ = d.listener.Close()
	}
	for conn := range d.greeting {
		_ = conn.Close()
	}
}
