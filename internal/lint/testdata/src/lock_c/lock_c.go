// Package queue (fixture lock_c) seeds a lock-order cycle between a ring's
// mutex and an auxiliary statsMu: Snapshot takes statsMu under mu, and
// Flush takes mu under statsMu, whose unlock is deferred. Held sets are
// per identity — the deferred unlock pins statsMu alone, and releasing
// statsMu leaves mu held — so each acquire records exactly its own edge.
package queue

import "sync"

type Ring struct {
	mu      sync.Mutex
	statsMu sync.Mutex
	n       int
	peak    int
}

func (r *Ring) Snapshot() int {
	r.mu.Lock()
	r.statsMu.Lock() // want "lock-order cycle"
	if r.n > r.peak {
		r.peak = r.n
	}
	r.statsMu.Unlock()
	n := r.n
	r.mu.Unlock()
	return n
}

func (r *Ring) Flush() int {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	r.mu.Lock()
	r.peak = r.n
	r.mu.Unlock()
	return r.peak
}
