// Package queue (fixture ctrllane_b) seeds the control-lane violation on
// the queue side: a consumer that serves the data lane before the control
// lane.
package queue

type miniLane struct{ n int }

type Spool struct {
	data miniLane
	ctrl miniLane
}

func (s *Spool) popLocked(l *miniLane) int {
	l.n--
	return l.n
}

func (s *Spool) PopWrong() int {
	if n := s.popLocked(&s.data); n >= 0 { // want "data lane before the control lane"
		return n
	}
	return s.popLocked(&s.ctrl)
}
