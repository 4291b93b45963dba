// Package observer (fixture admission_b) is the clean counterpart: the
// hello is read before any lock is taken, refusals go straight to the
// conn from lock-free helpers, the dialer reads its admission reply
// before taking the lock, rings are only ever TryPushed on the accept
// path, and blocking ring use outside accept-path functions is out of
// the admission check's scope.
package observer

import (
	"net"
	"sync"

	"repro/internal/message"
	"repro/internal/queue"
)

type server struct {
	mu    sync.Mutex
	out   *queue.Ring
	peers int
}

func (s *server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.handshake(conn) // want "is not tied to the lifecycle"
	}
}

// handshake does all connection I/O before touching the lock; the
// critical section is pure bookkeeping.
func (s *server) handshake(conn net.Conn) {
	m, err := message.Read(conn, nil, 1<<16)
	if err != nil {
		conn.Close()
		return
	}
	s.mu.Lock()
	s.peers++
	s.mu.Unlock()
	m.Release()
}

// serveConn refuses without holding anything.
func (s *server) serveConn(conn net.Conn, frame []byte) {
	_, _ = conn.Write(frame)
	conn.Close()
}

// Refuse drops the refusal when the ring is full rather than waiting:
// a lost Busy frame just means the dialer times out and backs off.
func (s *server) Refuse(m *message.Msg) {
	if !s.out.TryPush(m) {
		m.Release()
	}
}

// awaitAdmission reads the acceptor's reply first and only then records
// the outcome under the lock.
func (s *server) awaitAdmission(conn net.Conn, hdr []byte) error {
	_, err := conn.Read(hdr)
	s.mu.Lock()
	s.peers++
	s.mu.Unlock()
	return err
}

// writeLoop is a plain consumer, not an accept path: blocking on the
// ring here is the normal contract.
func (s *server) writeLoop() {
	for {
		m, err := s.out.Pop()
		if err != nil {
			return
		}
		m.Release()
	}
}
