package main

import (
	"bytes"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/bandwidth"
	"repro/internal/message"
	mx "repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// The micro rows time one layer's public functions directly. Operation
// counts are fixed (nothing is calibrated against the clock, so two runs
// do the same work), each row runs microReps times, and the row reports
// the median time per operation and the allocations per operation.

const microReps = 5

// microRow is one measured per-layer row.
type microRow struct {
	name   string
	value  float64 // in the unit the catalogue gives the row
	allocs float64 // heap allocations per operation
}

// microDef describes a row: body performs ops operations and returns how
// long they took, with any set-up it needs kept outside the timed part.
type microDef struct {
	name string
	ops  int
	body func(ops int) time.Duration
	// conv turns ns per op into the row's unit; nil keeps ns.
	conv func(nsPerOp float64) float64
}

// sinkhole keeps results alive so the compiler cannot drop the calls.
var sinkhole int

var microSrc = message.MakeID("10.9.0.1", 7000)

func runMicro() []microRow {
	rows := make([]microRow, 0, len(microDefs))
	for _, d := range microDefs {
		ns := make([]float64, 0, microReps)
		var allocs float64
		for i := 0; i < microReps; i++ {
			a0 := mallocs()
			el := d.body(d.ops)
			allocs = float64(mallocs()-a0) / float64(d.ops)
			ns = append(ns, float64(el.Nanoseconds())/float64(d.ops))
		}
		sort.Float64s(ns)
		v := ns[len(ns)/2]
		if d.conv != nil {
			v = d.conv(v)
		}
		rows = append(rows, microRow{name: d.name, value: v, allocs: allocs})
	}
	return rows
}

// timeIt runs f and returns its duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func pooledMsg(pool *message.Pool, payload int) *message.Msg {
	return pool.Get(dataType, microSrc, benchApp, 7, payload)
}

// wireImage is a rendered message of the given payload size.
func wireImage(payload int) []byte {
	m := message.New(dataType, microSrc, benchApp, 7, make([]byte, payload))
	return append(m.AppendHeader(nil), m.Payload()...)
}

func decodeRow(payload int) func(int) time.Duration {
	return func(ops int) time.Duration {
		w := wireImage(payload)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				m, n, err := message.Decode(w)
				if err != nil {
					panic(err)
				}
				sinkhole += n + m.Len()
			}
		})
	}
}

// handoffRow moves ops messages from a producer goroutine to a consumer
// goroutine through one ring, batch messages per ring operation.
func handoffRow(batch int) func(int) time.Duration {
	return func(ops int) time.Duration {
		r := queue.New(64)
		pool := message.NewPool()
		m := pooledMsg(pool, 64)
		defer m.Release()
		in := make([]*message.Msg, batch)
		for i := range in {
			in[i] = m
		}
		out := make([]*message.Msg, batch)
		var wg sync.WaitGroup
		wg.Add(1)
		el := timeIt(func() {
			go func() {
				defer wg.Done()
				for got := 0; got < ops; {
					n, err := r.PopBatch(out)
					if err != nil {
						return
					}
					got += n
				}
			}()
			for sent := 0; sent < ops; sent += batch {
				if _, err := r.PushBatch(in); err != nil {
					panic(err)
				}
			}
			wg.Wait()
		})
		r.Close()
		return el
	}
}

// pipePair dials a fresh connection across a private virtual network.
func pipePair() (dial, accept net.Conn, cleanup func()) {
	n := vnet.New()
	l, err := n.Listen("10.9.0.2:7000")
	if err != nil {
		panic(err)
	}
	dial, err = n.DialFrom("10.9.0.1:7000", "10.9.0.2:7000")
	if err != nil {
		panic(err)
	}
	accept, err = l.Accept()
	if err != nil {
		panic(err)
	}
	return dial, accept, n.Close
}

// pipeRow writes ops buffers of size bytes (per WriteBuffers call when
// vec > 1) into a dialed vnet connection while a reader goroutine drains
// it with segment-sized reads, as an engine receiver does.
func pipeRow(size, vec int) func(int) time.Duration {
	return func(ops int) time.Duration {
		w, r, cleanup := pipePair()
		defer cleanup()
		buf := make([]byte, size)
		total := int64(ops) * int64(size)
		var wg sync.WaitGroup
		wg.Add(1)
		return timeIt(func() {
			go func() {
				defer wg.Done()
				seg := make([]byte, message.SegmentSize)
				for got := int64(0); got < total; {
					n, err := r.Read(seg)
					if err != nil {
						return
					}
					got += int64(n)
				}
			}()
			if vec > 1 {
				bufs := make([][]byte, vec)
				for i := range bufs {
					bufs[i] = buf
				}
				bw := w.(buffersWriter)
				for i := 0; i < ops; i += vec {
					if _, err := bw.WriteBuffers(bufs); err != nil {
						panic(err)
					}
				}
			} else {
				for i := 0; i < ops; i++ {
					if _, err := w.Write(buf); err != nil {
						panic(err)
					}
				}
			}
			wg.Wait()
		})
	}
}

var microDefs = []microDef{
	{name: "message.header_render_ns", ops: 2_000_000, body: func(ops int) time.Duration {
		m := message.New(dataType, microSrc, benchApp, 7, make([]byte, 64))
		buf := make([]byte, 0, message.HeaderSize)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				buf = m.AppendHeader(buf[:0])
			}
			sinkhole += len(buf)
		})
	}},
	{name: "message.decode_5k_ns", ops: 500_000, body: decodeRow(5120)},
	{name: "message.decode_64_ns", ops: 500_000, body: decodeRow(64)},
	{name: "message.read_5k_ns", ops: 100_000, body: func(ops int) time.Duration {
		w := wireImage(5120)
		pool := message.NewPool()
		rd := bytes.NewReader(w)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				rd.Reset(w)
				m, err := message.Read(rd, pool, 0)
				if err != nil {
					panic(err)
				}
				m.Release()
			}
		})
	}},
	{name: "message.pool_get_release_ns", ops: 250_000, body: func(ops int) time.Duration {
		pool := message.NewPool()
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				pooledMsg(pool, 5120).Release()
			}
		})
	}},
	{name: "message.dgram_frame_ns", ops: 500_000, body: func(ops int) time.Duration {
		w := wireImage(1024)
		h := message.DgramHeader{Src: microSrc, MsgID: 1, FragIdx: 0, FragCnt: 1}
		buf := make([]byte, 0, message.DefaultDgramMTU)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				buf = message.AppendDgram(buf[:0], h, w)
				_, chunk, err := message.DecodeDgram(buf)
				if err != nil {
					panic(err)
				}
				sinkhole += len(chunk)
			}
		})
	}},
	{name: "message.reassemble_5frag_ns", ops: 10_000, body: func(ops int) time.Duration {
		// One 5 KiB message in five fragments; ops counts messages.
		w := wireImage(5120)
		chunk := (len(w) + 4) / 5
		ra := message.NewReassembler(0)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				h := message.DgramHeader{Src: microSrc, MsgID: uint32(i), FragCnt: 5}
				done := false
				for f := 0; f < 5; f++ {
					h.FragIdx = uint16(f)
					lo, hi := f*chunk, min((f+1)*chunk, len(w))
					_, done = ra.Accept(h, w[lo:hi])
				}
				if !done {
					panic("reassembly incomplete")
				}
			}
		})
	}},
	{name: "queue.push_pop_ns", ops: 200_000, body: func(ops int) time.Duration {
		r := queue.New(64)
		pool := message.NewPool()
		m := pooledMsg(pool, 64)
		defer m.Release()
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				if err := r.Push(m); err != nil {
					panic(err)
				}
				if _, err := r.Pop(); err != nil {
					panic(err)
				}
			}
		})
	}},
	{name: "queue.batch32_ns_per_msg", ops: 1_600_000, body: func(ops int) time.Duration {
		r := queue.New(64)
		pool := message.NewPool()
		m := pooledMsg(pool, 64)
		defer m.Release()
		in := make([]*message.Msg, 32)
		for i := range in {
			in[i] = m
		}
		out := make([]*message.Msg, 32)
		return timeIt(func() {
			for i := 0; i < ops; i += 32 {
				if _, err := r.PushBatch(in); err != nil {
					panic(err)
				}
				if _, err := r.PopBatch(out); err != nil {
					panic(err)
				}
			}
		})
	}},
	{name: "queue.handoff_ns_per_msg", ops: 960_000, body: handoffRow(32)},
	{name: "queue.handoff1_ns", ops: 100_000, body: handoffRow(1)},
	{name: "queue.mpsc_ns", ops: 1_000_000, body: func(ops int) time.Duration {
		q := queue.NewMPSC[int](256)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				q.TryPush(i)
				v, _ := q.TryPop()
				sinkhole += v
			}
		})
	}},
	{name: "bandwidth.wait_unshaped_ns", ops: 2_000_000, body: func(ops int) time.Duration {
		l := bandwidth.NewLimiter(0)
		defer l.Close()
		sh := bandwidth.NewShaper(l)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				l.Wait(5144)
				if sh.Active() {
					sinkhole++
				}
			}
		})
	}},
	{name: "vnet.pipe_MBps_5k", ops: 100_000, body: pipeRow(5144, 1),
		conv: func(ns float64) float64 { return 5144 / ns * 1e9 / (1 << 20) }},
	{name: "vnet.pipe_ns_per_write_64", ops: 500_000, body: pipeRow(88, 1)},
	{name: "vnet.writebuffers_ns_per_msg", ops: 64_000, body: pipeRow(5144, 32)},
	{name: "vnet.dgram_ns_per_pkt", ops: 320_000, body: func(ops int) time.Duration {
		n := vnet.New()
		defer n.Close()
		a, err := n.ListenPacket("10.9.0.1:7000")
		if err != nil {
			panic(err)
		}
		b, err := n.ListenPacket("10.9.0.2:7000")
		if err != nil {
			panic(err)
		}
		bw, br := a.(packetBatchWriter), b.(packetBatchReader)
		to := vnet.Addr("10.9.0.2:7000")
		pkt := make([]byte, 1024+message.HeaderSize+message.DgramHeaderSize)
		bufs := make([][]byte, 32)
		for i := range bufs {
			bufs[i] = pkt
		}
		dst := make([]vnet.Dgram, 32)
		return timeIt(func() {
			for i := 0; i < ops; i += 32 {
				if _, err := bw.WriteToBatch(bufs, to); err != nil {
					panic(err)
				}
				for got := 0; got < 32; {
					k := br.TryReadDgrams(dst)
					for _, d := range dst[:k] {
						d.Release()
					}
					got += k
				}
			}
		})
	}},
	{name: "vnet.dial_accept_us", ops: 2_000, body: func(ops int) time.Duration {
		n := vnet.New()
		defer n.Close()
		l, err := n.Listen("10.9.0.2:7000")
		if err != nil {
			panic(err)
		}
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				c, err := n.DialFrom("10.9.0.1:7000", "10.9.0.2:7000")
				if err != nil {
					panic(err)
				}
				s, err := l.Accept()
				if err != nil {
					panic(err)
				}
				c.Close()
				s.Close()
			}
		})
	}, conv: func(ns float64) float64 { return ns / 1e3 }},
	{name: "admission.admit_ns", ops: 250_000, body: func(ops int) time.Duration {
		// The per-source rate limit is lifted so every call takes the
		// admitted path, as a polite overlay's calls do.
		g := admission.New(admission.Config{SourceRate: 1e12, SourceBurst: 1 << 30})
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				if d, _ := g.Admit("10.9.0.1"); d == admission.Admitted {
					g.Release()
				}
			}
		})
	}},
	{name: "admission.admit_dgram_ns", ops: 250_000, body: func(ops int) time.Duration {
		g := admission.New(admission.Config{SourceRate: 1e12, SourceBurst: 1 << 30})
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				if g.AdmitDatagram("10.9.0.1") == admission.Admitted {
					sinkhole++
				}
			}
		})
	}},
	{name: "protocol.report_codec_ns", ops: 20_000, body: func(ops int) time.Duration {
		rp := protocol.Report{Node: microSrc, MsgsIn: 1 << 20, MsgsOut: 1 << 20}
		for i := 0; i < 8; i++ {
			ls := protocol.LinkStatus{Peer: nodeID(i), Rate: 1e6, BufLen: 3, BufCap: 64, BytesTotal: 1 << 30}
			rp.Upstreams = append(rp.Upstreams, ls)
			rp.Downstream = append(rp.Downstream, ls)
		}
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				out, err := protocol.DecodeReport(rp.Encode())
				if err != nil {
					panic(err)
				}
				sinkhole += len(out.Upstreams)
			}
		})
	}},
	{name: "metrics.hist_observe_ns", ops: 2_000_000, body: func(ops int) time.Duration {
		var h mx.Histogram
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				h.Observe(int64(i))
			}
		})
	}},
	{name: "trace.emit_ns", ops: 300_000, body: func(ops int) time.Duration {
		rec := trace.New(1024)
		return timeIt(func() {
			for i := 0; i < ops; i++ {
				rec.Emit(trace.KindSwitch, microSrc, benchApp, int64(i))
			}
		})
	}},
}
