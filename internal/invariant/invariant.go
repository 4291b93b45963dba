//go:build ioverlay_debug

// Package invariant provides runtime assertions for the middleware's
// core invariants, compiled in only under the ioverlay_debug build tag.
// Release builds see the no-op twin of this file: Enabled is a false
// constant there, so call sites guarded by `if invariant.Enabled` are
// eliminated at compile time and cost nothing on the hot path.
//
// The asserted invariants mirror the linted ones: only the engine
// goroutine may run Algorithm.Process, ring lane and byte accounting
// stays non-negative, and the engine's buffered-bytes gauge reconciles
// against what is actually buffered at shutdown.
package invariant

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// Enabled reports whether assertions are compiled in.
const Enabled = true

// Assert panics with a formatted message when cond is false.
func Assert(cond bool, format string, args ...any) {
	if !cond {
		panic("invariant violated: " + fmt.Sprintf(format, args...))
	}
}

// GoroutineID returns the runtime's ID for the calling goroutine, parsed
// from the stack header ("goroutine N [running]:"). It is debug-only
// machinery — the ID is never used for control flow, only to check
// engine-goroutine ownership of algorithm upcalls.
func GoroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	s, _, _ = strings.Cut(s, " ")
	id, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return -1
	}
	return id
}
