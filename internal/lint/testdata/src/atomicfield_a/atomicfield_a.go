// Package atomicfield_a (fixture) seeds the mixed-access race the typed
// atomics rule out: a counter field bumped through a function-style
// sync/atomic call, which nothing stops other code from reading plainly.
// The call is the finding; typed atomics and atomics on non-fields pass.
package atomicfield_a

import "sync/atomic"

type counter struct {
	hits  int64
	typed atomic.Int64
}

var global int64

func (c *counter) bump() {
	atomic.AddInt64(&c.hits, 1) // want "use the typed atomics"
	c.typed.Add(1)              // ok: a plain access to typed cannot compile
}

func (c *counter) peek() int64 {
	atomic.AddInt64(&global, 1)      // ok: not a struct field
	return atomic.LoadInt64(&c.hits) // want "use the typed atomics"
}
