// Package lockorder_c seeds a lock-order cycle whose one side takes its
// first lock with the TryLock guard form: the guard is an acquisition, so
// tokenMu -> stateMu in inline and stateMu -> tokenMu in drain close a
// cycle. A scanner that ignores TryLock sees no edge out of tokenMu.
package lockorder_c

import "sync"

type node struct {
	tokenMu sync.Mutex
	stateMu sync.Mutex
	n       int
}

func (x *node) inline() bool {
	if !x.tokenMu.TryLock() {
		return false
	}
	x.stateMu.Lock()
	x.n++
	x.stateMu.Unlock()
	x.tokenMu.Unlock()
	return true
}

func (x *node) drain() {
	x.stateMu.Lock()
	x.tokenMu.Lock() // want "lock-order cycle"
	x.n = 0
	x.tokenMu.Unlock()
	x.stateMu.Unlock()
}
