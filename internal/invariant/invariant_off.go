//go:build !ioverlay_debug

// Release twin of the debug assertion layer: Enabled is a false
// constant, so guarded call sites compile away entirely.
package invariant

// Enabled reports whether assertions are compiled in.
const Enabled = false

// Assert is a no-op in release builds. Call sites on hot paths should
// still guard with `if invariant.Enabled` so argument evaluation is
// eliminated too.
func Assert(bool, string, ...any) {}
