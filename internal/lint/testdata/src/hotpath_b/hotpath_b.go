// Package engine (fixture hotpath_b) seeds hot-path hygiene violations
// in the per-message send path: logging per message, boxing a
// *message.Msg into a variadic ...any argument list, a clock read behind
// the package-local interface the sender loop drives its wire format
// through, and logging in the datagram reader's loop.
package engine

import (
	"time"

	"repro/internal/message"
)

type framing interface{ put(m *message.Msg) }

type stamping struct{ last time.Time }

func (s *stamping) put(*message.Msg) { s.last = time.Now() }

type Shipper struct{ f framing }

func (s *Shipper) logf(format string, args ...any) {}

func (s *Shipper) Send(m *message.Msg) bool {
	s.logf("sending %v", m) // want "logf on the hot path" // want "boxed into"
	return true
}

func (s *Shipper) runSender(ms []*message.Msg) {
	for _, m := range ms {
		s.logf("wrote %d", len(m.Payload())) // want "logf on the hot path"
		s.f.put(m)                           // want "reaches time.Now"
	}
}

func (s *Shipper) runDgramReader(pkts [][]byte) {
	for _, p := range pkts {
		s.logf("read %d", len(p)) // want "logf on the hot path"
	}
}
