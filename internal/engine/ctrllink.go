package engine

import (
	"bufio"
	"net"
	"sync"

	"repro/internal/message"
	"repro/internal/queue"
)

// Link is one duplex control connection — a node's link to its observer
// or proxy, a trunk between two observers, either side of a proxy: the
// paper's single persistent, hello-identified connection, over which
// status flows one way and commands the other so nobody dials through a
// firewall. Outbound messages queue on a ring that one writer goroutine
// drains; inbound messages are read by the owner's own loop, through
// Read. Whichever side ends the link — a write error, a failed Read the
// owner answers with Close, the owner's Stop — the connection is closed,
// so the other side's blocked call returns and the link retires as one.
type Link struct {
	conn net.Conn
	br   *bufio.Reader
	ring *queue.Ring
}

// NewLink wraps an identified connection and starts its writer, counted
// on wg. capacity bounds the outbound ring in messages.
func NewLink(conn net.Conn, capacity int, wg *sync.WaitGroup) *Link {
	l := &Link{conn: conn, br: bufio.NewReader(conn), ring: queue.New(capacity)}
	wg.Add(1)
	go l.write(wg)
	return l
}

// write drains the ring to the connection, flushing when the ring runs
// dry. It is the link's only writer and ends on a closed ring or a write
// error; either way it closes the connection, which is what makes the
// owner's Read return. A closed link is not drained: the connection is
// gone with it, so what is still queued is left for Unsent.
func (l *Link) write(wg *sync.WaitGroup) {
	defer wg.Done()
	defer l.conn.Close()
	bufw := bufio.NewWriterSize(l.conn, 32<<10)
	for !l.ring.Closed() {
		m, err := l.ring.Pop()
		if err != nil {
			return
		}
		_, err = m.WriteTo(bufw)
		m.Release()
		if err == nil && l.ring.Len() == 0 {
			err = bufw.Flush()
		}
		if err != nil {
			l.ring.Close()
			return
		}
	}
}

// Send queues m for the writer and never blocks. It reports false, and
// leaves m with the caller, when the ring is full or the link closed:
// control traffic is shed, never waited for.
func (l *Link) Send(m *message.Msg) bool { return l.ring.TryPush(m) }

// Read returns the next inbound message; the owner calls it from one
// goroutine, in a loop, and answers an error with Close.
func (l *Link) Read() (*message.Msg, error) {
	return message.Read(l.br, nil, message.DefaultMaxPayload)
}

// Close retires the link: no more sends, writer and reader both return.
// What was queued and not yet written stays available through Unsent.
// Idempotent, safe from any goroutine.
func (l *Link) Close() {
	l.ring.Close()
	_ = l.conn.Close()
}

// Closed reports whether the link has been retired.
func (l *Link) Closed() bool { return l.ring.Closed() }

// Queued reports how many messages wait for the writer.
func (l *Link) Queued() int { return l.ring.Len() }

// Unsent removes and returns, oldest first, the messages Send accepted
// and the writer never wrote. Meaningful once the link is closed.
func (l *Link) Unsent() []*message.Msg {
	var out []*message.Msg
	for {
		m, ok := l.ring.TryPop()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}
