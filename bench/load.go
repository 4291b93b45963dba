package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
)

// stampPayload writes the due time and the seeded body into a stamped
// message's payload.
func stampPayload(p []byte, due int64, f fill) {
	binary.BigEndian.PutUint64(p[0:8], uint64(due))
	binary.BigEndian.PutUint32(p[8:12], f.crc)
	binary.BigEndian.PutUint32(p[12:16], 0)
	copy(p[stampLen:], f.body)
}

// generator is the open-loop load: one goroutine on a fixed schedule of
// genTick ticks, rate*genTick messages due per tick, injected at the
// source node through Engine.Do. Each message is stamped with the time
// its tick was due, not the time it was sent, so a stall shows up as
// latency on every message it delayed. A generator that wakes late sends
// the ticks it missed, at most maxCatchUp per wake-up and with wake-ups
// half a tick apart: the schedule is kept, but a 50 ms host stall does not
// turn into one burst of hundreds of messages.
//
// On a datagram lane the generator also keeps at most dgramWindow
// messages unsettled. That lane drops what a full 64-slot ring cannot
// take, and on a shared host one node's goroutines can be held off for
// tens of milliseconds while the generator keeps running; without the
// window such a stall becomes a loss count that differs from run to run,
// with it the stall becomes latency, which the due-time stamps measure.
type generator struct {
	offered atomic.Int64 // messages handed to Engine.Do so far
	stop    atomic.Bool
	done    chan struct{}

	mu   sync.Mutex
	late []uint32 // per wake-up: how long after its first message's due time it sent, ns
}

const (
	// maxCatchUp bounds the ticks one wake-up injects. Timers on a small VM
	// overshoot a 1 ms sleep by about as much again, so two ticks per
	// wake-up is the normal case and three recovers a backlog.
	maxCatchUp = 3
	// dgramWindow is below the 64 slots of the smallest ring on the path,
	// so what is in flight always fits.
	dgramWindow = 48
	// giveUp is how long a full window may make no progress before its
	// messages count as lost and the window reopens; longer than any stall
	// seen on the host, so that a stall never doubles what is in flight.
	giveUp = 500 * time.Millisecond
	// While nothing has been delivered yet the links are still coming up
	// and a datagram lane drops what it cannot route: one message at a
	// time, retried every tick, until the first one lands.
	primeWindow = 1
	primeGiveUp = genTick
)

// startGenerator starts the schedule. settled is nil on stream lanes,
// whose back-pressure loses nothing; on a datagram lane it reports the
// sink's progress (see sink.settled).
func startGenerator(e *engine.Engine, dests []message.NodeID, s spec, f fill, tr *tracer, settled func() int64) *generator {
	g := &generator{done: make(chan struct{})}
	perTick := int64(s.rate) * int64(genTick) / int64(time.Second)
	go func() {
		defer close(g.done)
		base := nowNs()
		dueOf := func(n int64) int64 { return base + n/perTick*int64(genTick) }
		var n int64     // messages injected so far; also the next sequence number
		var floor int64 // messages below it are settled or given up
		var blockedAt int64
		woke := base - int64(genTick)/2
		for !g.stop.Load() {
			// Wake-ups stay half a tick apart even when the schedule is
			// behind, so a backlog drains a few ticks at a time instead of
			// all at once.
			time.Sleep(time.Duration(max(dueOf(n), woke+int64(genTick)/2) - nowNs()))
			woke = nowNs()
			count := min(((woke-base)/int64(genTick)+1)*perTick-n, maxCatchUp*perTick)
			if settled != nil {
				window, patience := int64(dgramWindow), int64(giveUp)
				done := settled()
				if done == 0 {
					window, patience = primeWindow, int64(primeGiveUp)
				}
				floor = max(floor, done)
				if n-floor >= window {
					if blockedAt == 0 {
						blockedAt = woke
					}
					if woke-blockedAt < patience {
						continue
					}
					floor = n
				}
				blockedAt = 0
				count = min(count, window-(n-floor))
			}
			g.mu.Lock()
			g.late = append(g.late, uint32(min(max(woke-dueOf(n), 0), maxLatNs)))
			g.mu.Unlock()
			first := n
			e.Do(func(api engine.API) {
				for i := first; i < first+count; i++ {
					q := uint32(i)
					m := api.NewMsg(dataType, benchApp, q, s.payload)
					stampPayload(m.Payload(), dueOf(i), f)
					if tr != nil && sampled(q) {
						// The source node has no Process span for an injected
						// message; this one stands in as the hop's cause.
						t := nowNs()
						tr.nodes[0].addSpan(q, t, t)
					}
					api.SendNew(m, dests...)
				}
			})
			n += count
			g.offered.Add(count)
		}
	}()
	return g
}

func (g *generator) halt() {
	g.stop.Store(true)
	<-g.done
}

// lateness hands over the per-tick lateness samples taken since the last
// call.
func (g *generator) lateness() []uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.late
	g.late = nil
	return l
}

// churner is the link_churn load: churnClients closed-loop clients, each
// owning a share of the leaves and visiting them in seeded order. One
// cycle sends a stamped 64-byte message from the hub to a leaf that has no
// link yet (dial, hello, busy-probe, admission, registration, delivery),
// waits for the leaf's sink to report it, closes the link and waits until
// the hub no longer lists the leaf downstream.
type churner struct {
	begun     atomic.Int64 // cycles started
	completed atomic.Int64 // cycles that delivered and tore down
	timeouts  atomic.Int64 // cycles whose delivery or teardown never showed
	firstDone []atomic.Int64
	stop      atomic.Bool
	wg        sync.WaitGroup
}

// cycleTimeout bounds each wait of a link cycle; a healthy one takes a
// few milliseconds.
const cycleTimeout = 2 * time.Second

func startChurn(c *cluster, f fill, seed int64) *churner {
	ch := &churner{firstDone: make([]atomic.Int64, churnClients)}
	order := rand.New(rand.NewSource(seed)).Perm(churnLeaves)
	hub := c.engines[0]
	for cl := 0; cl < churnClients; cl++ {
		var leaves []int // indices into c.sinks; node number is index+1
		for i := cl; i < len(order); i += churnClients {
			leaves = append(leaves, order[i])
		}
		ch.wg.Add(1)
		go func(cl int) {
			defer ch.wg.Done()
			visits := make([]uint32, churnLeaves)
			closed := make(chan struct{}, 1) // one CloseLink is in flight per client
			for n := 0; !ch.stop.Load(); n++ {
				leaf := leaves[n%len(leaves)]
				peer := nodeID(leaf + 1)
				seq := visits[leaf]
				visits[leaf]++
				ch.begun.Add(1)
				hub.Do(func(api engine.API) {
					m := api.NewMsg(dataType, benchApp, seq, c.spec.payload)
					stampPayload(m.Payload(), nowNs(), f)
					api.SendNew(m, peer)
				})
				if !c.sinks[leaf].box.await(int64(seq)+1, cycleTimeout) {
					ch.timeouts.Add(1)
					continue
				}
				hub.Do(func(api engine.API) {
					api.CloseLink(peer)
					closed <- struct{}{}
				})
				select {
				case <-closed:
				case <-time.After(cycleTimeout):
				}
				if !awaitDropped(hub, peer) {
					ch.timeouts.Add(1)
					continue
				}
				ch.completed.Add(1)
				if n == 0 {
					ch.firstDone[cl].Store(nowNs())
				}
			}
		}(cl)
	}
	return ch
}

// awaitDropped waits until hub no longer lists peer as a downstream.
func awaitDropped(hub *engine.Engine, peer message.NodeID) bool {
	deadline := time.Now().Add(cycleTimeout)
	for {
		listed := false
		for _, d := range hub.Downstreams() {
			if d == peer {
				listed = true
				break
			}
		}
		if !listed {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// halt lets every client finish the cycle it is in, so that cycles begun
// equal deliveries plus timeouts when the run is verified.
func (ch *churner) halt() {
	ch.stop.Store(true)
	ch.wg.Wait()
}
