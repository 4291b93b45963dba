// Package engine (fixture hotpath_b) seeds hot-path hygiene violations
// in the per-message send path: formatting a message, which boxes the
// *message.Msg into a variadic ...any argument list, and a clock read
// behind the package-local interface the sender loop drives its wire
// format through.
package engine

import (
	"fmt"
	"time"

	"repro/internal/message"
)

type framing interface{ put(m *message.Msg) }

type stamping struct{ last time.Time }

func (s *stamping) put(*message.Msg) { s.last = time.Now() }

type Shipper struct {
	f    framing
	tags []string
}

func (s *Shipper) Send(m *message.Msg) bool {
	s.tags = append(s.tags, fmt.Sprint(m)) // want "fmt.Sprint" // want "boxed into"
	return true
}

func (s *Shipper) runSender(ms []*message.Msg) {
	for _, m := range ms {
		s.f.put(m) // want "reaches time.Now"
	}
}
