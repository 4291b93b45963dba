package trace

import (
	"sync"
	"testing"

	"repro/internal/message"
)

func TestNilAndZeroRecorderAreNoops(t *testing.T) {
	var nilRec *Recorder
	nilRec.Emit(KindSwitch, message.NodeID{}, 0, 1)
	if got := nilRec.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	if nilRec.Cap() != 0 || nilRec.Cursor() != 0 {
		t.Fatal("nil recorder reported non-zero cap or cursor")
	}
	var zero Recorder
	zero.Emit(KindSwitch, message.NodeID{}, 0, 1)
	if got := zero.Snapshot(); got != nil {
		t.Fatalf("zero recorder snapshot = %v, want nil", got)
	}
}

func TestEmitAndSnapshotOrder(t *testing.T) {
	r := New(8)
	peer := message.MakeID("10.0.0.2", 7000)
	for i := 1; i <= 5; i++ {
		r.Emit(KindSwitch, peer, 7, int64(i))
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Value != int64(i+1) || ev.Kind != KindSwitch || ev.Peer != peer || ev.App != 7 {
			t.Fatalf("event %d corrupted: %+v", i, ev)
		}
		if ev.Nanos == 0 {
			t.Fatalf("event %d has zero timestamp", i)
		}
		if i > 0 && evs[i].Nanos < evs[i-1].Nanos {
			t.Fatalf("timestamps went backwards: %d then %d", evs[i-1].Nanos, evs[i].Nanos)
		}
	}
}

func TestWrapAroundKeepsNewest(t *testing.T) {
	r := New(4)
	for i := 1; i <= 11; i++ {
		r.Emit(KindShed, message.NodeID{}, 0, int64(i))
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events after wrap, want 4", len(evs))
	}
	for i, ev := range evs {
		want := int64(8 + i)
		if ev.Value != want {
			t.Fatalf("event %d value = %d, want %d", i, ev.Value, want)
		}
	}
}

func TestSnapshotSince(t *testing.T) {
	r := New(16)
	for i := 1; i <= 6; i++ {
		r.Emit(KindLinkUp, message.NodeID{}, 0, int64(i))
	}
	evs := r.SnapshotSince(4)
	if len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("SnapshotSince(4) = %+v, want seqs 5,6", evs)
	}
	if got := r.SnapshotSince(6); got != nil {
		t.Fatalf("SnapshotSince(cursor) = %+v, want nil", got)
	}
	if got := r.SnapshotSince(99); got != nil {
		t.Fatalf("SnapshotSince(future) = %+v, want nil", got)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	} {
		if got := New(tc.in).Cap(); got != tc.want {
			t.Fatalf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestEmitDoesNotAllocate is the zero-allocation guarantee the hot path
// relies on: an armed recorder must not put pressure on the GC.
func TestEmitDoesNotAllocate(t *testing.T) {
	r := New(1024)
	peer := message.MakeID("10.0.0.3", 7000)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(KindSwitch, peer, 1, 32)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocated %v times per run, want 0", allocs)
	}
}

// TestConcurrentEmitSnapshot hammers the ring from several writers while
// a reader snapshots continuously. Run under -race this verifies the
// publication protocol; in any mode it verifies no snapshot ever
// contains a torn or out-of-window record.
func TestConcurrentEmitSnapshot(t *testing.T) {
	r := New(64)
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			peer := message.MakeID("10.0.0.9", uint32(7000+w))
			for i := 0; i < perWriter; i++ {
				r.Emit(Kind(1+w%4), peer, uint32(w), int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Snapshot()
			last := uint64(0)
			for _, ev := range evs {
				if ev.Seq <= last {
					t.Errorf("snapshot out of order: seq %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
				if ev.Kind < KindSwitch || ev.Kind > KindProbeBW {
					t.Errorf("torn record in snapshot: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if got := r.Cursor(); got != writers*perWriter {
		t.Fatalf("cursor = %d, want %d", got, writers*perWriter)
	}
	evs := r.Snapshot()
	if len(evs) == 0 || len(evs) > r.Cap() {
		t.Fatalf("final snapshot has %d events, want 1..%d", len(evs), r.Cap())
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := KindSwitch; k <= KindProbeBW; k++ {
		n := KindName(k)
		if n == "" || seen[n] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, n)
		}
		seen[n] = true
	}
	if KindName(Kind(200)) == "" {
		t.Fatal("unknown kind must still render")
	}
}

// TestWrapAroundAcrossChunks: a ring of several chunks keeps its newest
// Cap events, in order, across every chunk boundary and the wrap.
func TestWrapAroundAcrossChunks(t *testing.T) {
	const size, emitted = 4 * chunkSlots, 700
	r := New(size)
	for i := 1; i <= emitted; i++ {
		r.Emit(KindSwitch, message.NodeID{}, 0, int64(i))
	}
	evs := r.Snapshot()
	if len(evs) != size {
		t.Fatalf("got %d events after wrap, want %d", len(evs), size)
	}
	for i, ev := range evs {
		want := uint64(emitted - size + 1 + i)
		if ev.Seq != want || ev.Value != int64(want) {
			t.Fatalf("event %d = seq %d value %d, want %d", i, ev.Seq, ev.Value, want)
		}
	}
}

// TestSnapshotSinceInFirstChunk: a recorder whose events have not filled
// its first chunk has allocated no other, and snapshots skip the chunks
// that do not exist.
func TestSnapshotSinceInFirstChunk(t *testing.T) {
	r := New(1024)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("fresh recorder snapshot = %+v, want nil", got)
	}
	for i := 1; i <= 10; i++ {
		r.Emit(KindLinkUp, message.NodeID{}, 0, int64(i))
	}
	for i := 1; i < len(r.chunks); i++ {
		if r.chunks[i].Load() != nil {
			t.Fatalf("chunk %d allocated after 10 events", i)
		}
	}
	if evs := r.Snapshot(); len(evs) != 10 {
		t.Fatalf("Snapshot = %d events, want 10", len(evs))
	}
	evs := r.SnapshotSince(7)
	if len(evs) != 3 || evs[0].Seq != 8 || evs[2].Seq != 10 || evs[2].Value != 10 {
		t.Fatalf("SnapshotSince(7) = %+v, want seqs 8..10", evs)
	}
}

// TestEmitAllocatesOncePerChunk: over a recorder's whole life — here three
// times around its ring — Emit allocates each chunk once and nothing else.
func TestEmitAllocatesOncePerChunk(t *testing.T) {
	const size = 1024
	allocs := testing.AllocsPerRun(10, func() {
		r := New(size)
		for i := 0; i < 3*size; i++ {
			r.Emit(KindSwitch, message.NodeID{}, 0, int64(i))
		}
	})
	// New allocates at most the recorder and its chunk table; the
	// recorder may live on the stack here.
	if want := float64(2 + size/chunkSlots); allocs > want {
		t.Fatalf("a recorder's life allocates %v objects, want at most %v: one per chunk", allocs, want)
	}
}

// TestConcurrentEmitsRaceForAChunk: writers that reach an unallocated chunk
// together install exactly one of their allocations — a loser writes into
// the winner's chunk, never into one the ring forgets — so no event goes
// missing. Run under -race this also checks the chunk's publication.
func TestConcurrentEmitsRaceForAChunk(t *testing.T) {
	const writers, perWriter = 8, 16
	for round := 0; round < 2000; round++ {
		r := New(1024)
		pre := round % chunkSlots // where in a chunk the race starts
		for i := 0; i < pre; i++ {
			r.Emit(KindSwitch, message.NodeID{}, 0, 0)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perWriter; i++ {
					r.Emit(KindSwitch, message.NodeID{}, uint32(w), int64(i))
				}
			}()
		}
		close(start)
		wg.Wait()
		evs := r.Snapshot()
		if want := pre + writers*perWriter; len(evs) != want {
			t.Fatalf("round %d: %d events recorded, want %d: an Emit wrote into a chunk the ring lost", round, len(evs), want)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("round %d: event %d has seq %d", round, i, ev.Seq)
			}
		}
	}
}
