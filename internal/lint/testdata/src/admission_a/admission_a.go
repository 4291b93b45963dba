// Package observer (fixture admission_a) seeds accept-path violations:
// a handshake that reads frames with a lock held, a shed helper that
// writes its refusal inside a critical section, a Busy sender that
// blocks on a data ring, and a dialer that waits for its admission reply
// under a lock — exactly the patterns that let one mute peer or one full
// lane freeze admission during a connection storm.
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

// handshake pins the lock across the hello read: every other admission
// (and anything else the lock guards) waits on the slowest dialer.
func (s *server) handshake(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := message.Read(conn, nil, 1<<16) // want "connection I/O with a lock held"
	if err != nil {
		conn.Close()
		return
	}
	s.peers++
	m.Release()
}

// serveConn writes the refusal frame inside the critical section.
func (s *server) serveConn(conn net.Conn, frame []byte) {
	s.mu.Lock()
	_, _ = conn.Write(frame) // want "connection I/O with a lock held"
	s.mu.Unlock()
	conn.Close()
}

// Refuse queues the refusal through a blocking ring push: under the
// very overload that triggers refusals, the ring is full and the accept
// path wedges behind it.
func (s *server) Refuse(m *message.Msg) {
	_ = s.out.Push(m) // want "blocks on Ring.Push"
}

// awaitAdmission waits for the acceptor's reply with the lock held: a
// mute acceptor pins it for the whole handshake timeout.
func (s *server) awaitAdmission(conn net.Conn, hdr []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := conn.Read(hdr) // want "connection I/O with a lock held"
	return err
}
