package engine

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/message"
	"repro/internal/protocol"
)

// errPeerBusy marks a dial attempt refused by the peer's admission gate
// with a Busy frame; the carried hint floors the next backoff delay.
var errPeerBusy = errors.New("engine: peer refused admission (busy)")

// errBadReply marks a dial attempt answered with anything other than a
// Welcome or Busy frame.
var errBadReply = errors.New("engine: unexpected reply to hello")

// errDialerClosed ends a dial whose Dialer was closed before its
// handshake began.
var errDialerClosed = errors.New("engine: dialer closed")

// Dialer opens outgoing links, every kind the same way: the transport
// dial, the hello, then exactly one reply frame from the acceptor —
// Welcome, Busy, or a close — inside one handshake deadline. A sender's
// link to a peer, the node's observer link, a proxy's trunk and an
// observer's federation trunks all open through one. Close interrupts a
// handshake in flight, so nobody's Stop waits out a mute acceptor.
//
// The zero value is ready. Dial runs on one goroutine at a time; Close is
// safe from any.
type Dialer struct {
	mu     sync.Mutex
	conn   net.Conn // the connection whose handshake is in flight
	closed bool
	// reply receives the acceptor's reply frame — a bare Welcome header,
	// or a Busy header and payload. Dial's goroutine only.
	reply [message.HeaderSize + protocol.BusySize]byte
}

// Dial connects from local to addr over t, writes hello — a pre-rendered
// hello frame — and reads the acceptor's reply, both within timeout: a
// blackholed peer with a full socket buffer stalls the hello write no
// longer than a mute one stalls the reply. A returned connection is
// admitted. A Busy refusal returns errPeerBusy with the refusal's
// retry-after hint. Once Close has run, every Dial fails.
func (d *Dialer) Dial(t Transport, local, addr string, hello []byte, timeout time.Duration) (net.Conn, time.Duration, error) {
	conn, err := t.DialFrom(local, addr, timeout)
	if err != nil {
		return nil, 0, err
	}
	// Published for Close, which may have run during the transport dial.
	d.mu.Lock()
	closed := d.closed
	if !closed {
		d.conn = conn
	}
	d.mu.Unlock()
	if closed {
		_ = conn.Close()
		return nil, 0, errDialerClosed
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	var hint time.Duration
	if _, err = conn.Write(hello); err == nil {
		hint, err = awaitAdmission(conn, d.reply[:])
	}
	d.mu.Lock()
	d.conn = nil
	d.mu.Unlock()
	if err != nil {
		_ = conn.Close()
		return nil, hint, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, 0, nil
}

// Close fails the handshake in flight, if any, by closing its connection,
// and every later Dial. Idempotent.
func (d *Dialer) Close() {
	d.mu.Lock()
	d.closed = true
	conn := d.conn
	d.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
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
