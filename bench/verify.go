package main

import "time"

// minDgramDelivered is the share of offered messages chain8_dgram must
// deliver for the run to count as correct. The generator's window (see
// dgramWindow) keeps what is in flight below every ring on the path, so
// the expected loss is none; each lost message still counts as a failed
// operation. The allowance only keeps a single odd loss from voiding a
// whole run; a lane that sheds under its offered rate loses far more.
const minDgramDelivered = 0.995

const (
	drainIdle  = 250 * time.Millisecond
	drainLimit = 10 * time.Second
)

// verify stops the load, lets in-flight messages land, and checks what
// the sinks saw against what was offered. A lost, duplicated, reordered
// (on a stream lane), corrupt or timed-out message or link cycle is a
// failed operation. It must run before the engines stop: the engines'
// own loss counters are read while they are still up, so messages dropped
// by the teardown itself do not count. It returns the share of attempted
// operations that were delivered and verified.
func (r *result) verify(c *cluster) float64 {
	c.stopLoad()
	s := c.spec
	offered := c.counts().offered
	if c.gen != nil {
		// Open loop: everything injected should arrive at every sink. A
		// backlog may take a while (a system that cannot keep up with its
		// rate has seconds of it), so the wait lasts as long as deliveries
		// keep coming; what has not arrived when they stop, or after
		// drainLimit, has timed out.
		want := offered * int64(len(c.sinks))
		start, last, lastAt := time.Now(), int64(-1), time.Now()
		for {
			got := c.counts().msgs
			if got != last {
				last, lastAt = got, time.Now()
			}
			if got >= want || time.Since(lastAt) > drainIdle || time.Since(start) > drainLimit {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	var attempted, delivered, failed int64
	for _, sk := range c.sinks {
		sk.mu.Lock()
		bad := sk.gaps + sk.stale + sk.dups + sk.corrupt
		switch {
		case !sk.ordered: // datagram lane, verified from sk.from on
			want := offered - int64(sk.from)
			attempted += want
			delivered += sk.inRange
			failed += bad + max(want-sk.inRange, 0) // the rest never arrived
		case c.gen != nil: // open-loop stream
			attempted += offered
			delivered += sk.msgs
			failed += bad + max(offered-int64(sk.next), 0) // the tail never arrived
		default: // closed loop: what was offered is what the sink can tell
			attempted += sk.msgs + bad
			delivered += sk.msgs
			failed += bad
		}
		sk.mu.Unlock()
	}
	if c.churn != nil {
		attempted = offered // cycles begun
		failed += c.churn.timeouts.Load()
	}
	r.Attempted += attempted
	r.Failed += failed
	frac := 0.0
	if attempted > 0 {
		frac = float64(delivered) / float64(attempted)
	}

	if s.dgram {
		// Loss is the datagram lane's contract, but only a little of it.
		if frac < minDgramDelivered {
			r.problem("%s: delivered_frac %.5f below %v (%d of %d)", s.name, frac, minDgramDelivered, delivered, attempted)
		}
		if failed > attempted-delivered {
			r.problem("%s: %d duplicate or corrupt deliveries", s.name, failed-(attempted-delivered))
		}
		return frac
	}
	if failed != 0 || delivered != attempted {
		r.problem("%s: %d of %d operations failed (delivered %d)", s.name, failed, attempted, delivered)
	}
	if ctr := sumCounters(c.engines); ctr.MsgsShed != 0 || ctr.MsgsDropped != 0 {
		r.problem("%s: engines shed %d and dropped %d messages on a stream workload", s.name, ctr.MsgsShed, ctr.MsgsDropped)
	}
	return frac
}
