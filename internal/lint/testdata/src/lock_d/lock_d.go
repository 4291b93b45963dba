// Package engine (fixture lock_d) is the turn-token half of the engine
// upcall rule. The token is the one engine lock meant to be held across
// the algorithm callback, so an upcall under it alone — taken with Lock in
// a select arm and dropped at the loop top, or with the TryLock guard a
// receiver uses — is clean. Any other engine lock held at the upcall stays
// a finding, with or without the token, and so does a lock taken behind a
// TryLock guard: the guard is an acquisition like any other.
package engine

import "sync"

type algIface interface {
	Process(v int) int
}

type Core struct {
	turnMu sync.Mutex
	mu     sync.Mutex
	auxMu  sync.Mutex
	alg    algIface
	work   chan int
	done   chan struct{}
}

func (c *Core) notifyAlg(v int) {
	c.alg.Process(v)
}

// run holds the token for every turn and gives it up only while it waits.
func (c *Core) run() {
	c.turnMu.Lock()
	for {
		c.turnMu.Unlock()
		select {
		case v := <-c.work:
			c.turnMu.Lock()
			c.alg.Process(v)
			c.notifyAlg(v)
		case <-c.done:
			return
		}
	}
}

// switchInline is the receiver's try: no token, no turn.
func (c *Core) switchInline(v int) bool {
	if !c.turnMu.TryLock() {
		return false
	}
	c.alg.Process(v)
	c.turnMu.Unlock()
	return true
}

// underBoth holds the token, legitimately, and the state lock, not.
func (c *Core) underBoth(v int) {
	if !c.turnMu.TryLock() {
		return
	}
	c.mu.Lock()
	c.alg.Process(v) // want "engine lock held"
	c.mu.Unlock()
	c.turnMu.Unlock()
}

// guarded takes an ordinary engine lock through the guard form.
func (c *Core) guarded(v int) {
	if !c.auxMu.TryLock() {
		return
	}
	defer c.auxMu.Unlock()
	c.notifyAlg(v) // want "engine lock held"
}

// probing holds the lock only inside the body of the positive form.
func (c *Core) probing(v int) {
	if v > 0 && c.auxMu.TryLock() {
		c.alg.Process(v) // want "engine lock held"
		c.auxMu.Unlock()
	}
	c.alg.Process(v)
}

// fallthroughGuard does not leave on failure, so nothing is known after it.
func (c *Core) fallthroughGuard(v int) {
	if !c.auxMu.TryLock() {
		v++
	}
	c.alg.Process(v)
}
