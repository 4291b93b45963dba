package engine

import (
	"sync"

	"repro/internal/bandwidth"
	"repro/internal/message"
	"repro/internal/queue"
)

// source is a locally deployed application data generator: it produces
// data messages of a fixed size at a configured rate (or back-to-back when
// unlimited) and injects them into the switch through the local ring, so
// that the algorithm decides their downstreams exactly like any other
// message. This models the paper's "application" layer producing the data
// portion of messages.
type source struct {
	app     uint32
	limiter *bandwidth.Limiter
	stop    chan struct{}
	once    sync.Once
}

func (s *source) halt() {
	s.once.Do(func() { close(s.stop) })
}

// StartSource deploys a data source for app. Part of the API interface;
// safe from any goroutine (the observer's sDeploy handler and tests both
// use it).
func (e *Engine) StartSource(app uint32, rate int64, msgSize int) {
	if msgSize <= 0 {
		msgSize = 1024
	}
	s := &source{
		app:     app,
		limiter: bandwidth.NewLimiter(rate),
		stop:    make(chan struct{}),
	}
	e.mu.Lock()
	if e.stopping {
		e.mu.Unlock()
		return
	}
	if old, ok := e.localApps[app]; ok {
		old.halt()
	}
	e.localApps[app] = s
	ring := e.localRing.Load()
	if ring == nil {
		ring = queue.New(e.cfg.RecvBuf)
		e.localRing.Store(ring)
	}
	e.mu.Unlock()
	e.wg.Add(1)
	go e.runSource(s, ring, msgSize)
}

// StopSource terminates a locally deployed source. Part of the API
// interface.
func (e *Engine) StopSource(app uint32) {
	e.mu.Lock()
	s, ok := e.localApps[app]
	if ok {
		delete(e.localApps, app)
	}
	e.mu.Unlock()
	if ok {
		s.halt()
	}
}

func (e *Engine) runSource(s *source, ring *queue.Ring, msgSize int) {
	defer e.wg.Done()
	defer s.limiter.Close()
	seq := uint32(0)
	// Back-to-back (unlimited) sources inject in batches: one ring
	// operation and one engine wakeup per batch. Rate-limited sources pace
	// message by message so the emulated rate stays smooth.
	batchN := 1
	if s.limiter.Rate() <= 0 {
		batchN = e.cfg.BatchSize
		if c := ring.Cap(); batchN > c {
			batchN = c
		}
	}
	batch := make([]*message.Msg, 0, batchN)
	for {
		select {
		case <-s.stop:
			return
		case <-e.done:
			return
		default:
		}
		batch = batch[:0]
		var bytes int64
		for i := 0; i < batchN; i++ {
			m := sharedPool.Get(message.FirstDataType, e.id, s.app, seq, msgSize)
			s.limiter.Wait(m.WireLen())
			batch = append(batch, m)
			bytes += int64(m.WireLen())
			seq++
		}
		if !e.ingest(ring, batch, bytes) {
			return
		}
	}
}
