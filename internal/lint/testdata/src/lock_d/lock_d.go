// Package engine (fixture lock_d) is an algorithm upcall made under the
// engine's state lock, in miniature: completeProbe holds mu across
// notifyAlg, whose turn assertion takes the token with a TryLock, while a
// turn holds the token across a call that takes mu. mu -> turnMu and
// turnMu -> mu close a cycle. No test drives a probe to completion, so
// this shape in the real engine is caught by the lock-order graph alone.
package engine

import "sync"

type Core struct {
	turnMu sync.Mutex
	mu     sync.Mutex
	n      int
}

// assertTurn panics unless someone holds the token.
func (c *Core) assertTurn() {
	if c.turnMu.TryLock() {
		c.turnMu.Unlock()
		panic("upcall without the turn token")
	}
}

func (c *Core) notifyAlg(v int) {
	c.assertTurn()
	c.n += v
}

func (c *Core) completeProbe(v int) {
	c.mu.Lock()
	c.notifyAlg(v) // want "lock-order cycle"
	c.mu.Unlock()
}

// turn holds the token across a call that takes the state lock.
func (c *Core) turn() {
	c.turnMu.Lock()
	c.bump()
	c.turnMu.Unlock()
}

func (c *Core) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
