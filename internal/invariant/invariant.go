//go:build ioverlay_debug

// Package invariant provides runtime assertions for the middleware's
// core invariants, compiled in only under the ioverlay_debug build tag.
// Release builds see the no-op twin of this file: Enabled is a false
// constant there, so call sites guarded by `if invariant.Enabled` are
// eliminated at compile time and cost nothing on the hot path.
//
// The asserted invariants mirror the linted ones: Algorithm.Process runs
// only under the engine's turn token, ring lane and byte accounting stays
// non-negative, and the engine's buffered-bytes gauge reconciles against
// what is actually buffered at shutdown.
package invariant

import "fmt"

// Enabled reports whether assertions are compiled in.
const Enabled = true

// Assert panics with a formatted message when cond is false.
func Assert(cond bool, format string, args ...any) {
	if !cond {
		panic("invariant violated: " + fmt.Sprintf(format, args...))
	}
}
