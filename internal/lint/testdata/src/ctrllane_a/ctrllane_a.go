// Package engine (fixture ctrllane_a) seeds the control-lane violation on
// the engine side: a blocking Ring.Push where only the non-blocking push
// APIs are allowed.
package engine

import (
	"repro/internal/message"
	"repro/internal/queue"
)

type relaySender struct {
	ring *queue.Ring
}

func (s *relaySender) enqueue(m *message.Msg) error {
	return s.ring.Push(m) // want "blocking Ring.Push"
}
