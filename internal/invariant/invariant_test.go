package invariant

import "testing"

// TestAssert exercises whichever twin of the package is compiled in:
// under ioverlay_debug a false condition must panic and a true one must
// not; in release builds Assert must always be a no-op.
func TestAssert(t *testing.T) {
	Assert(true, "true must never fire")
	fired := func() (p bool) {
		defer func() { p = recover() != nil }()
		Assert(false, "seeded failure %d", 42)
		return
	}()
	if fired != Enabled {
		t.Fatalf("Assert(false) panicked=%v, want %v (Enabled=%v)", fired, Enabled, Enabled)
	}
}
