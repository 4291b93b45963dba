package message

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/invariant"
)

// recycles reports whether this build hands a released struct out again:
// ioverlay_debug builds never do, and under the race detector sync.Pool
// may or may not.
const recycles = !invariant.Enabled && !raceEnabled

// countOwner is an Owner that counts its releases.
type countOwner struct{ released atomic.Int32 }

func (o *countOwner) Release() { o.released.Add(1) }

// wireOf renders the wire image of a message with the given header fields
// and a payload of n bytes of fill.
func wireOf(typ Type, app, seq uint32, n int, fill byte) []byte {
	m := New(typ, NodeID{IP: 0x0a000001, Port: 7000}, app, seq, bytes.Repeat([]byte{fill}, n))
	return append(m.AppendHeader(nil), m.Payload()...)
}

// TestRecycledConstructorsAllocateNothing: once the pools are warm, every
// constructor on the receive path and the local-source path builds its
// message out of a recycled struct — no allocation for the struct, none for
// the buffer, none to box either on the way back.
func TestRecycledConstructorsAllocateNothing(t *testing.T) {
	if !recycles {
		t.Skip("the race detector and ioverlay_debug builds do not recycle messages")
	}
	p := NewPool()
	wire := wireOf(FirstDataType, 1, 2, 64, 'x')
	seg := p.GetSegment()
	defer seg.Release()
	copy(seg.Bytes(), wire)
	owner := &countOwner{}
	id := NodeID{IP: 0x0a000001, Port: 7000}

	for name, build := range map[string]func() *Msg{
		"Pool.Get":    func() *Msg { return p.Get(FirstDataType, id, 1, 2, 64) },
		"FromBytes":   func() *Msg { return FromBytes(wire, p) },
		"FromSegment": func() *Msg { return FromSegment(seg, 0) },
		"FromOwned":   func() *Msg { return FromOwned(wire, owner) },
	} {
		build().Release() // warm-up
		if allocs := testing.AllocsPerRun(1000, func() { build().Release() }); allocs != 0 {
			t.Errorf("%s + Release: %v allocations per message, want 0", name, allocs)
		}
	}
}

// TestRecycledStructCarriesNothingOver: whatever a struct was in its
// previous life — aliasing a segment, aliasing an owner's buffer, backed by
// a pool buffer, the parent a Derive held on to — its next life is the
// message its constructor was asked for and nothing else: one reference,
// its own header fields and wire image, no leftover segment, owner or
// parent to release a second time.
func TestRecycledStructCarriesNothingOver(t *testing.T) {
	p := NewPool()
	oldWire := wireOf(FirstDataType+1, 9, 900, 40, 'o')
	newWire := wireOf(FirstDataType+2, 3, 33, 32, 'n') // same size class as oldWire
	seg := p.GetSegment()
	defer seg.Release()
	owner := &countOwner{}

	lives := []struct {
		name string
		// previous builds, uses up and fully releases a message, returning
		// the struct that was released last.
		previous func() *Msg
		// next builds the message for newWire out of the same pool the
		// previous life's struct went back to.
		next func() *Msg
		// want names the one backing the next life may have; owners counts
		// the lives, of the two, that alias the owner's buffer.
		wantSeg, wantOwner, wantPool bool
		owners                       int32
	}{{
		name: "segment-aliased, then owner-aliased",
		previous: func() *Msg {
			copy(seg.Bytes(), oldWire)
			m := FromSegment(seg, 0)
			m.Release()
			return m
		},
		next:      func() *Msg { return FromOwned(newWire, owner) },
		wantOwner: true, owners: 1,
	}, {
		name: "owner-aliased, then segment-aliased",
		previous: func() *Msg {
			m := FromOwned(oldWire, owner)
			m.Release()
			return m
		},
		next: func() *Msg {
			copy(seg.Bytes(), newWire)
			return FromSegment(seg, 0)
		},
		wantSeg: true, owners: 1,
	}, {
		name: "pool-backed, then copied from bytes",
		previous: func() *Msg {
			m := FromBytes(oldWire, p)
			m.Retain()
			m.Release()
			m.Release()
			return m
		},
		next:     func() *Msg { return FromBytes(newWire, p) },
		wantPool: true,
	}, {
		name: "parent of a Derive, then read from a stream",
		previous: func() *Msg {
			m := FromBytes(oldWire, p)
			d := m.Derive(FirstDataType+7, ZeroID, 70, 700)
			m.Release() // the derived message now holds the last reference
			d.Release()
			return m
		},
		next: func() *Msg {
			m, err := Read(bytes.NewReader(newWire), p, 0)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			return m
		},
		wantPool: true,
	}}
	for _, life := range lives {
		t.Run(life.name, func(t *testing.T) {
			// sync.Pool promises nothing about which struct comes back, so
			// where this build recycles, try until the same one does.
			reused := false
			for try := 0; try < 100 && !reused; try++ {
				segRefs, ownerReleases := seg.Refs(), owner.released.Load()
				old := life.previous()
				m := life.next()
				reused = m == old

				if m.Refs() != 1 {
					t.Fatalf("Refs() = %d, want 1", m.Refs())
				}
				if m.WireType() != FirstDataType+2 || m.App() != 3 || m.Seq() != 33 ||
					m.Sender() != (NodeID{IP: 0x0a000001, Port: 7000}) {
					t.Fatalf("header = %v, want the one in the wire image", m)
				}
				if !bytes.Equal(m.Wire(), newWire) || !bytes.Equal(m.Payload(), newWire[HeaderSize:]) {
					t.Fatal("Wire()/Payload() are not the new message's bytes")
				}
				if m.parent != nil || (m.seg != nil) != life.wantSeg ||
					(m.owner != nil) != life.wantOwner || (m.pool != nil) != life.wantPool {
					t.Fatalf("backing: parent=%v seg=%v owner=%v pool=%v", m.parent, m.seg, m.owner, m.pool)
				}
				m.Release()
				// Each life released what it aliased exactly once.
				if seg.Refs() != segRefs {
					t.Fatalf("segment refs %d → %d across two lives", segRefs, seg.Refs())
				}
				if got := owner.released.Load() - ownerReleases; got != life.owners {
					t.Fatalf("owner released %d times across two lives, want %d", got, life.owners)
				}
			}
			if recycles && !reused {
				t.Error("the released struct never came back in 100 tries")
			}
		})
	}
}

// TestRecycledMessagePanicsOnStaleUse: a released struct waiting in its
// pool still answers a stale Retain or Release with the panic a
// garbage-collected message gives.
func TestRecycledMessagePanicsOnStaleUse(t *testing.T) {
	p := NewPool()
	owner := &countOwner{}
	wire := wireOf(FirstDataType, 1, 2, 64, 'x')
	for name, build := range map[string]func() *Msg{
		"pool-backed": func() *Msg { return p.Get(FirstDataType, ZeroID, 1, 2, 64) },
		"aliasing":    func() *Msg { return FromOwned(wire, owner) },
	} {
		for op, stale := range map[string]func(*Msg){
			"Release": (*Msg).Release,
			"Retain":  func(m *Msg) { m.Retain() },
		} {
			t.Run(name+"/"+op, func(t *testing.T) {
				m := build()
				m.Release()
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a released %s message did not panic", op, name)
					}
				}()
				stale(m)
			})
		}
	}
}

// TestConcurrentRetainReleaseRecycled hammers recycled messages the way the
// engine does on a fan-out: one goroutine builds a message and hands a
// reference to each of several others, all of them read it and let go, and
// whoever is last sends the struct back for the next message. In a build
// without ioverlay_debug a reference dropped too early shows as a data race
// on the struct (sync.Pool orders only Put before Get) or as another
// message's bytes under a reader.
func TestConcurrentRetainReleaseRecycled(t *testing.T) {
	const readers, rounds = 4, 5000
	p := NewPool()
	owner := &countOwner{}
	chans := make([]chan *Msg, readers)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *Msg, 8) // a short queue keeps several messages in flight
		wg.Add(1)
		go func(ch chan *Msg) {
			defer wg.Done()
			for m := range ch {
				fill := byte(m.Seq())
				if pl := m.Payload(); len(pl) != 64 || pl[0] != fill || pl[63] != fill || m.App() != m.Seq()/2 {
					t.Errorf("message %d read back as app %d, payload %d bytes of %q", m.Seq(), m.App(), len(pl), pl[:1])
				}
				m.Release()
			}
		}(chans[i])
	}
	for i := uint32(0); i < rounds; i++ {
		var m *Msg
		if i%2 == 0 {
			m = p.Get(FirstDataType, ZeroID, i/2, i, 64)
			for j := range m.Payload() {
				m.Payload()[j] = byte(i)
			}
		} else {
			m = FromOwned(wireOf(FirstDataType, i/2, i, 64, byte(i)), owner)
		}
		for _, ch := range chans {
			ch <- m.Retain()
		}
		m.Release()
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if got := owner.released.Load(); got != rounds/2 {
		t.Errorf("owner released %d times, want %d", got, rounds/2)
	}
}
