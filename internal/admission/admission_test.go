package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic bucket math.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestNilGateAdmitsEverything: the nil gate admits everything, and a
// negative MaxHandshakes is how a config asks for it.
func TestNilGateAdmitsEverything(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Gate
	}{
		{"nil", nil},
		{"MaxHandshakes -1", New(Config{MaxHandshakes: -1})},
	} {
		g := tc.g
		if g != nil {
			t.Fatalf("%s: gate = %p, want nil", tc.name, g)
		}
		for i := 0; i < 100; i++ {
			if d, _ := g.Admit("10.0.0.1"); d != Admitted {
				t.Fatalf("%s: nil gate refused: %v", tc.name, d)
			}
		}
		g.Release() // must not panic
		if st := g.Stats(); st != (Stats{}) {
			t.Fatalf("%s: nil gate stats = %+v, want zero", tc.name, st)
		}
	}
}

// TestHandshakeTokensCapInFlight is the core tentpole property: no matter
// how many sources dial, at most MaxHandshakes admissions are in flight
// until tokens are released.
func TestHandshakeTokensCapInFlight(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{MaxHandshakes: 4}, DefaultMaxSources, clk.Now)
	for i := 0; i < 4; i++ {
		if d, _ := g.Admit(fmt.Sprintf("10.0.0.%d", i)); d != Admitted {
			t.Fatalf("admission %d refused: %v", i, d)
		}
	}
	d, hint := g.Admit("10.0.9.9")
	if d != ShedBusy {
		t.Fatalf("5th admission = %v, want ShedBusy", d)
	}
	if hint <= 0 {
		t.Fatalf("busy hint = %v, want > 0", hint)
	}
	if got := g.InFlight(); got != 4 {
		t.Fatalf("InFlight = %d, want 4", got)
	}
	g.Release()
	if d, _ := g.Admit("10.0.9.9"); d != Admitted {
		t.Fatalf("post-release admission = %v, want Admitted", d)
	}
	st := g.Stats()
	if st.Admitted != 5 || st.ShedBusy != 1 || st.InFlightPeak != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReleaseNeverUnderflows(t *testing.T) {
	g := New(Config{MaxHandshakes: 2})
	g.Release()
	g.Release()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after spurious releases = %d", got)
	}
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatalf("admission refused after spurious releases: %v", d)
	}
}

// TestSourceRateLimitAndRefill drains one source's burst and checks both
// the refusal and the token-accrual hint, then refills by advancing time.
func TestSourceRateLimitAndRefill(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{
		MaxHandshakes: 1000, SourceRate: 10, SourceBurst: 3,
		GreylistAfter: 100,
	}, DefaultMaxSources, clk.Now)
	for i := 0; i < 3; i++ {
		d, _ := g.Admit("10.0.0.1")
		if d != Admitted {
			t.Fatalf("burst admission %d = %v", i, d)
		}
		g.Release()
	}
	d, hint := g.Admit("10.0.0.1")
	if d != ShedRate {
		t.Fatalf("past-burst admission = %v, want ShedRate", d)
	}
	if hint <= 0 || hint > 100*time.Millisecond {
		t.Fatalf("rate hint = %v, want (0, 100ms] at 10/s", hint)
	}
	// Another source is unaffected.
	if d, _ := g.Admit("10.0.0.2"); d != Admitted {
		t.Fatalf("independent source refused: %v", d)
	}
	// A token accrues after 100ms at 10/s.
	clk.Advance(110 * time.Millisecond)
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatalf("post-refill admission = %v, want Admitted", d)
	}
}

// TestGreylistFlappingSource hammers one source until it greylists, then
// checks the greylist re-arms under continued hammering and expires only
// after the source goes quiet.
func TestGreylistFlappingSource(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{
		MaxHandshakes: 1000, SourceRate: 1, SourceBurst: 1,
		GreylistAfter: 3, GreylistFor: time.Second,
	}, DefaultMaxSources, clk.Now)
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatal("first admission refused")
	}
	g.Release()
	// Strikes 1, 2, then the 3rd refusal greylists.
	for i := 0; i < 2; i++ {
		if d, _ := g.Admit("10.0.0.1"); d != ShedRate {
			t.Fatalf("strike %d = %v, want ShedRate", i+1, d)
		}
	}
	if d, _ := g.Admit("10.0.0.1"); d != ShedGreylist {
		t.Fatalf("3rd strike = %v, want ShedGreylist", d)
	}
	// Continued hammering re-arms the entry: 900ms in, still greylisted,
	// and the window restarts from that touch.
	clk.Advance(900 * time.Millisecond)
	if d, _ := g.Admit("10.0.0.1"); d != ShedGreylist {
		t.Fatal("greylist expired early")
	}
	clk.Advance(900 * time.Millisecond)
	if d, _ := g.Admit("10.0.0.1"); d != ShedGreylist {
		t.Fatal("greylist did not re-arm under hammering")
	}
	// Quiet for the full window: admitted again (bucket refilled too).
	clk.Advance(1100 * time.Millisecond)
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatal("greylist did not expire after quiet period")
	}
	if st := g.Stats(); st.ShedGreylist != 3 {
		t.Fatalf("ShedGreylist = %d, want 3", st.ShedGreylist)
	}
}

// TestBusyRefusalCostsNoStrike: token exhaustion is the acceptor's
// condition, not the source's misbehavior, so it must not march a polite
// source toward the greylist.
func TestBusyRefusalCostsNoStrike(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{
		MaxHandshakes: 1, SourceRate: 1000, SourceBurst: 1000,
		GreylistAfter: 2,
	}, DefaultMaxSources, clk.Now)
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatal("first admission refused")
	}
	for i := 0; i < 10; i++ {
		if d, _ := g.Admit("10.0.0.2"); d != ShedBusy {
			t.Fatalf("refusal %d = %v, want ShedBusy", i, d)
		}
	}
	g.Release()
	if d, _ := g.Admit("10.0.0.2"); d != Admitted {
		t.Fatal("busy-refused source was struck out")
	}
}

func TestSourceTableEviction(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{MaxHandshakes: 1000}, 4, clk.Now)
	for i := 0; i < 8; i++ {
		clk.Advance(time.Millisecond)
		if d, _ := g.Admit(fmt.Sprintf("10.0.0.%d", i)); d != Admitted {
			t.Fatalf("admission %d refused", i)
		}
		g.Release()
	}
	st := g.Stats()
	if st.Sources != 4 {
		t.Fatalf("Sources = %d, want 4", st.Sources)
	}
	if st.Evicted != 4 {
		t.Fatalf("Evicted = %d, want 4", st.Evicted)
	}
}

// TestConcurrentAdmitRelease races admissions against releases and
// checks the token invariant holds throughout (run under -race).
func TestConcurrentAdmitRelease(t *testing.T) {
	g := New(Config{MaxHandshakes: 8, SourceRate: 1e9, SourceBurst: 1 << 20})
	var wg sync.WaitGroup
	var admitted, refused int64
	var mu sync.Mutex
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("10.0.1.%d", w)
			for i := 0; i < 500; i++ {
				d, _ := g.Admit(src)
				if d == Admitted {
					if n := g.InFlight(); n > 8 {
						t.Errorf("InFlight = %d > MaxHandshakes", n)
					}
					g.Release()
					mu.Lock()
					admitted++
					mu.Unlock()
				} else {
					mu.Lock()
					refused++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatal("no admissions at all")
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d", got)
	}
	st := g.Stats()
	if st.Admitted != admitted || st.ShedBusy != refused {
		t.Fatalf("stats %+v disagree with observed admitted=%d refused=%d",
			st, admitted, refused)
	}
}

func TestDecisionStrings(t *testing.T) {
	for d, want := range map[Decision]string{
		Admitted: "admitted", ShedBusy: "shed-busy", ShedRate: "shed-rate",
		ShedGreylist: "shed-greylist", BadHello: "bad-hello", Timeout: "handshake-timeout",
		AcceptRetry: "accept-retry", Decision(99): "unknown",
	} {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", d, got, want)
		}
	}
}

// TestEvictionPrefersStalest pins the LRU direction of the source-table
// eviction: when the table is full, the entry with the oldest lastSeen
// goes — not an arbitrary one — and recently touched entries survive
// with their state intact. The evicted source's history (here, a live
// greylist) is forgotten with it, which is the documented cost of the
// bound.
func TestEvictionPrefersStalest(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{
		MaxHandshakes: 1000, SourceRate: 0.001, SourceBurst: 1,
		GreylistAfter: 1, GreylistFor: time.Hour,
	}, 3, clk.Now)
	// Burn B's only token, then strike it out: B is greylisted for an hour.
	if d, _ := g.Admit("B"); d != Admitted {
		t.Fatal("B's first admission refused")
	}
	g.Release()
	if d, _ := g.Admit("B"); d != ShedGreylist {
		t.Fatal("B's second admission should have greylisted it")
	}
	// A and C arrive later; the table is now at its bound of 3 and B holds
	// the oldest lastSeen.
	clk.Advance(time.Millisecond)
	g.Admit("A")
	g.Release()
	clk.Advance(time.Millisecond)
	g.Admit("C")
	g.Release()
	// D forces an eviction: B (stalest) must be the victim.
	clk.Advance(time.Millisecond)
	if d, _ := g.Admit("D"); d != Admitted {
		t.Fatal("D refused")
	}
	g.Release()
	st := g.Stats()
	if st.Sources != 3 {
		t.Fatalf("Sources = %d, want 3 (bound exceeded)", st.Sources)
	}
	if st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
	// A's entry survived: its burst token is spent, so unlike a fresh
	// source it is refused (and, at GreylistAfter 1, immediately
	// greylisted) rather than admitted.
	if d, _ := g.Admit("A"); d == Admitted {
		t.Fatal("A admitted: its entry was evicted despite being fresher than B")
	}
	// B is admitted immediately despite its hour-long greylist: eviction
	// erased the entry, proving B was the one dropped. (This re-inserts B,
	// evicting the then-stalest entry — checked after the assertions above.)
	if d, _ := g.Admit("B"); d != Admitted {
		t.Fatal("B still greylisted: the eviction hit a fresher entry instead")
	}
	g.Release()
}

// TestSourceBoundNeverExceeded hammers the gate with far more distinct
// sources than the table admits and checks the bound holds after every
// single arrival, with the overflow accounted in Evicted.
func TestSourceBoundNeverExceeded(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{MaxHandshakes: 1000}, 4, clk.Now)
	for i := 0; i < 100; i++ {
		clk.Advance(time.Millisecond)
		if d, _ := g.Admit(fmt.Sprintf("10.1.%d.%d", i/256, i%256)); d != Admitted {
			t.Fatalf("admission %d refused", i)
		}
		g.Release()
		if st := g.Stats(); st.Sources > 4 {
			t.Fatalf("after arrival %d: Sources = %d, bound of 4 exceeded", i, st.Sources)
		}
	}
	st := g.Stats()
	if st.Sources != 4 {
		t.Fatalf("Sources = %d, want 4", st.Sources)
	}
	if st.Evicted != 96 {
		t.Fatalf("Evicted = %d, want 96", st.Evicted)
	}
}

// TestGreylistExpiresExactlyAfterGreylistFor pins the window boundary: a
// greylisted source left quiet is shed strictly inside the window and
// admitted at exactly GreylistFor — the greylist is a timed penalty, not
// a permanent ban.
func TestGreylistExpiresExactlyAfterGreylistFor(t *testing.T) {
	clk := newFakeClock()
	g := newGate(Config{
		MaxHandshakes: 1000, SourceRate: 1, SourceBurst: 1,
		GreylistAfter: 1, GreylistFor: time.Second,
	}, DefaultMaxSources, clk.Now)
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatal("first admission refused")
	}
	g.Release()
	if d, _ := g.Admit("10.0.0.1"); d != ShedGreylist {
		t.Fatal("second admission should have greylisted the source")
	}
	clk.Advance(time.Second - time.Nanosecond)
	if d, _ := g.Admit("10.0.0.1"); d != ShedGreylist {
		t.Fatal("shed expected strictly inside the greylist window")
	}
	// The touch above re-armed the window; wait it out fully this time.
	clk.Advance(time.Second)
	if d, _ := g.Admit("10.0.0.1"); d != Admitted {
		t.Fatal("greylist did not expire at GreylistFor")
	}
}
