package main

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"time"

	"uhtm/internal/cache"
	"uhtm/internal/coherence"
	"uhtm/internal/core"
	"uhtm/internal/dramcache"
	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/server"
	"uhtm/internal/shard"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/txds"
	"uhtm/internal/wal"
)

// Layer probes: host time per call into one package's public entry
// point, in isolation, with inputs shaped like the workloads. Each probe
// runs once to warm up, then probeReps timed rounds; the metric is the
// median round's time per call.

const probeReps = 5

// footprintLines is a 100 KB transaction footprint in cache lines, the
// grid's Figure 6 shape.
const footprintLines = 100 << 10 / mem.LineSize

// timeCalls returns the median over probeReps rounds of one round's
// nanoseconds divided by calls. round runs one round of calls; setup,
// when non-nil, runs untimed before each round.
func timeCalls(calls int, setup func(), round func()) float64 {
	var per []float64
	for r := 0; r <= probeReps; r++ {
		if setup != nil {
			setup()
		}
		start := time.Now()
		round()
		if r > 0 { // round 0 warms up
			per = append(per, float64(time.Since(start))/float64(calls))
		}
	}
	return medianOf(per)
}

func us(ns float64) float64 { return ns / 1e3 }

// runProbes sets every probe metric.
func runProbes(out *result) error {
	probes := []struct {
		name string
		fn   func() float64
	}{
		{"sim.sync_ns", probeSync},
		{"harness.session_do_us", probeSessionDo},
		{"cache.touch_ns", probeCacheTouch},
		{"cache.insert_ns", probeCacheInsert},
		{"coherence.check_write_ns", probeCheckWrite},
		{"signature.check_ns", probeSignatureCheck},
		{"signature.insert_ns", probeSignatureInsert},
		{"dramcache.insert_ns", probeDRAMCacheInsert},
		{"mem.persist_line_ns", probePersistLine},
		{"wal.append_ns", probeWALAppend},
		{"wal.replay_ns_per_rec", probeWALReplay},
		{"core.small_commit_ns", probeSmallCommit},
		{"core.reclaim_us", probeReclaim},
		{"core.recover_us", probeRecover},
		{"txds.hashmap_get_ns", probeHashMapGet},
		{"txds.hashmap_put_ns", probeHashMapPut},
		{"server.read_request_ns", probeReadRequest},
		{"server.write_reply_ns", probeWriteReply},
		{"server.store_apply_us", probeStoreApply},
	}
	for _, p := range probes {
		out.set(p.name, p.fn())
	}
	crossUS, recoverMS := probeCluster()
	out.set("shard.submit_cross_us", crossUS)
	out.set("shard.recover_serving_ms", recoverMS)
	return nil
}

// probeSync: one Sync+Advance step of four simulated threads, the
// scheduler handoff every simulated access pays.
func probeSync() float64 {
	const threads, steps = 4, 20000
	return timeCalls(threads*steps, nil, func() {
		eng := sim.NewEngine(1)
		for t := 0; t < threads; t++ {
			eng.Spawn("sync", func(th *sim.Thread) {
				for i := 0; i < steps; i++ {
					th.Sync()
					th.Advance(sim.Nanosecond)
				}
			})
		}
		eng.Run()
	})
}

// probeSessionDo: one session batch of two bodies, the most the
// benchmark's two connections can put in one server batch.
func probeSessionDo() float64 {
	const calls = 2000
	sess := harness.NewSession(sim.NewEngine(1))
	body := func(th *sim.Thread) { th.Advance(sim.Nanosecond) }
	return us(timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			sess.Do("probe", body, body)
		}
	}))
}

// probeCacheTouch: an LLC lookup that hits, over a resident 100 KB
// footprint.
func probeCacheTouch() float64 {
	const calls = 200000
	g := mem.DefaultConfig()
	c := cache.New("llc", g.LLCSize, g.LLCWays, nil)
	for i := 0; i < footprintLines; i++ {
		c.Insert(mem.NVMBase + mem.Addr(i)*mem.LineSize)
	}
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			c.Touch(mem.NVMBase + mem.Addr(i%footprintLines)*mem.LineSize)
		}
	})
}

// probeCacheInsert: an LLC fill that evicts, streaming past a full cache.
func probeCacheInsert() float64 {
	const calls = 200000
	g := mem.DefaultConfig()
	c := cache.New("llc", g.LLCSize, g.LLCWays, func(cache.Eviction) {})
	next := mem.NVMBase
	fill := func(n int) {
		for i := 0; i < n; i++ {
			c.Insert(next)
			next += mem.LineSize
		}
	}
	fill(g.LLCSize / mem.LineSize)
	return timeCalls(calls, nil, func() { fill(calls) })
}

// probeCheckWrite: a coherence directory write check against sixteen
// transactions holding a 100 KB footprint between them; half the probed
// lines conflict.
func probeCheckWrite() float64 {
	const calls = 200000
	d := coherence.NewDirectory()
	for i := 0; i < footprintLines; i++ {
		d.AddWrite(mem.NVMBase+mem.Addr(i)*mem.LineSize, uint64(1+i%16))
	}
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			d.CheckWrite(mem.NVMBase+mem.Addr(i%(2*footprintLines))*mem.LineSize, 99)
		}
	})
}

// probeSignatureCheck: a write probe against a 4 Kbit signature pair
// holding 400 lines.
func probeSignatureCheck() float64 {
	const calls = 500000
	p := signature.NewPair(signature.Bits4K)
	for i := 0; i < 400; i++ {
		p.AddWrite(mem.Addr(i) * mem.LineSize)
	}
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			p.CheckWrite(mem.Addr(i) * mem.LineSize)
		}
	})
}

// probeSignatureInsert: one insertion into a 4 Kbit filter, cleared
// after each 100 KB footprint.
func probeSignatureInsert() float64 {
	const calls = 500000
	f := signature.NewFilter(signature.Bits4K)
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			if i%footprintLines == 0 {
				f.Clear()
			}
			f.Insert(mem.Addr(i) * mem.LineSize)
		}
	})
}

// probeDRAMCacheInsert: buffering one early-evicted NVM line, each
// 100 KB footprint committed before the next.
func probeDRAMCacheInsert() float64 {
	const calls = 100000
	g := mem.DefaultConfig()
	dc := dramcache.New(g.DRAMCacheSize, g.DRAMCacheWays)
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			tx := uint64(1 + i/footprintLines)
			dc.Insert(mem.NVMBase+mem.Addr(i)*mem.LineSize, tx)
			if (i+1)%footprintLines == 0 {
				dc.CommitTx(tx)
			}
		}
	})
}

// probePersistLine: one line reaching the NVM durability domain.
func probePersistLine() float64 {
	const calls = 100000
	st := mem.NewStore(mem.DefaultConfig())
	var line mem.Line
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			line[0] = byte(i)
			st.PersistLine(mem.NVMBase+mem.Addr(i%footprintLines)*mem.LineSize, &line)
		}
	})
}

// probeWALAppend: one durable redo-record append, the ring truncated at
// half full.
func probeWALAppend() float64 {
	const calls = 100000
	st := mem.NewStore(mem.DefaultConfig())
	l := wal.NewLog(st, mem.NVMLogBase, 32<<20, true)
	var data mem.Line
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			l.Append(wal.Record{Type: wal.RecWrite, TxID: 1, Addr: mem.NVMBase, Data: data})
			if l.Len() > l.Slots()/2 {
				l.Reclaim(l.Head())
			}
		}
	})
}

// probeWALReplay: replaying one record of a crashed log of 100
// transactions of 16 writes each.
func probeWALReplay() float64 {
	st := mem.NewStore(mem.DefaultConfig())
	l := wal.NewLog(st, mem.NVMLogBase, 32<<20, true)
	var data mem.Line
	recs := 0
	for tx := uint64(1); tx <= 100; tx++ {
		for j := 0; j < 16; j++ {
			l.Append(wal.Record{Type: wal.RecWrite, TxID: tx, Addr: mem.NVMBase + mem.Addr(j)*mem.LineSize, Data: data})
			recs++
		}
		l.Append(wal.Record{Type: wal.RecCommit, TxID: tx, LSN: tx})
		recs++
	}
	st.Crash()
	const rounds = 20
	return timeCalls(rounds*recs, nil, func() {
		for i := 0; i < rounds; i++ {
			l.Replay()
		}
	})
}

// newMachine builds a machine of the given core count with the server's
// options.
func newMachine(cores int) (*sim.Engine, *core.Machine) {
	eng := sim.NewEngine(1)
	opts := core.DefaultOptions()
	opts.Paranoid = false
	g := mem.DefaultConfig()
	g.Cores = cores
	return eng, core.NewMachine(eng, g, opts)
}

// runThread runs body as the engine's only simulated thread (core 0)
// and frees the core for the next call.
func runThread(eng *sim.Engine, body func(*sim.Thread)) {
	eng.Spawn("probe", body)
	eng.Run()
	eng.Recycle()
}

// probeSmallCommit: a durable transaction writing one NVM line.
func probeSmallCommit() float64 {
	const calls = 20000
	eng, m := newMachine(1)
	a := mem.NewAllocator(mem.NVM).AllocLines(1)
	return timeCalls(calls, nil, func() {
		runThread(eng, func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for i := 0; i < calls; i++ {
				c.Run(func(tx *core.Tx) { tx.WriteU64(a, uint64(i)) })
			}
		})
	})
}

// probeReclaim: one ReclaimLogs pass with a redo ring just under the half
// full mark at which commits start reclaiming on their own.
func probeReclaim() float64 {
	eng, m := newMachine(cores)
	pool := mem.NewAllocator(mem.NVM).AllocLines(footprintLines)
	ring := m.RedoLog(0)
	fill := func() {
		runThread(eng, func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for i := 0; ring.Len()+8 < ring.Slots()*45/100; i++ {
				c.Run(func(tx *core.Tx) {
					for w := 0; w < 4; w++ {
						tx.WriteU64(pool+mem.Addr((i*4+w)%footprintLines)*mem.LineSize, uint64(i))
					}
				})
			}
		})
	}
	return us(timeCalls(1, fill, m.ReclaimLogs))
}

// probeRecover: crash plus recovery of a machine whose redo log holds a
// residual committed suffix after one checkpoint.
func probeRecover() float64 {
	eng, m := newMachine(1)
	pool := mem.NewAllocator(mem.NVM).AllocLines(8)
	runThread(eng, func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < 256; k++ {
			c.Run(func(tx *core.Tx) {
				for w := 0; w < 4; w++ {
					tx.WriteU64(pool+mem.Addr((k*4+w)%8)*mem.LineSize, uint64(k))
				}
			})
			if k == 128 {
				m.ReclaimLogs()
			}
		}
	})
	const calls = 20
	return us(timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			m.Crash()
			m.Recover()
		}
	}))
}

// newHashMap builds a hash map over a plain store holding keys 1..keys
// with 64-byte values.
func newHashMap(keys int) (*mem.Store, *txds.HashMap) {
	st := mem.NewStore(mem.DefaultConfig())
	h := txds.NewHashMap(st, mem.NewAllocator(mem.NVM), 1<<15)
	v := make([]byte, 64)
	for k := 1; k <= keys; k++ {
		h.Put(st, uint64(k), v)
	}
	return st, h
}

// probeHashMapGet: a lookup among 4,096 keys, a working set that fits
// the LLC.
func probeHashMapGet() float64 {
	const calls = 100000
	st, h := newHashMap(4096)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, calls)
	for i := range keys {
		keys[i] = uint64(rng.Intn(4096)) + 1
	}
	return timeCalls(calls, nil, func() {
		for _, k := range keys {
			h.Get(st, k)
		}
	})
}

// probeHashMapPut: an update in kv-write-2pc's key space (65,536 keys)
// with its value sizes.
func probeHashMapPut() float64 {
	const calls = 20000
	st, h := newHashMap(65536)
	rng := rand.New(rand.NewSource(1))
	sizes := []int{256, 1024, 4096}
	vals := make([][]byte, len(sizes))
	for i, n := range sizes {
		vals[i] = make([]byte, n)
	}
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			h.Put(st, uint64(rng.Intn(65536))+1, vals[i%len(vals)])
		}
	})
}

// probeReadRequest: decoding one GET from the wire.
func probeReadRequest() float64 {
	const calls = 100000
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := 0; i < calls; i++ {
		server.WriteRequest(w, [][]byte{[]byte("GET"), []byte(strconv.Itoa(1 + i%4096))})
	}
	w.Flush()
	wire := buf.Bytes()
	return timeCalls(calls, nil, func() {
		r := bufio.NewReader(bytes.NewReader(wire))
		for i := 0; i < calls; i++ {
			server.ReadRequest(r)
		}
	})
}

// probeWriteReply: encoding one 64-byte GET reply.
func probeWriteReply() float64 {
	const calls = 100000
	rep := server.BulkString(make([]byte, 64))
	w := bufio.NewWriter(io.Discard)
	return timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			server.WriteReply(w, rep)
		}
		w.Flush()
	})
}

// probeStoreApply: one read-mostly request (90% GET, 10% PUT of 64
// bytes, Zipf keys over 4,096) as a durable transaction on the server's
// store, on one simulated thread.
func probeStoreApply() float64 {
	const calls = 5000
	eng, m := newMachine(cores)
	st := server.NewStore(m, 1<<15)
	st.Prepopulate(4096, 64)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 4095)
	ops := make([][]server.Op, calls)
	for i := range ops {
		op := server.Op{Kind: server.OpGet, Key: z.Uint64() + 1}
		if rng.Float64() >= 0.9 {
			op = server.Op{Kind: server.OpPut, Key: op.Key, Val: make([]byte, 64)}
		}
		ops[i] = []server.Op{op}
	}
	return us(timeCalls(calls, nil, func() {
		runThread(eng, func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for _, o := range ops {
				st.Apply(c, o)
			}
		})
	}))
}

// probeCluster times, on a four-shard serving cluster, a two-shard 2PC
// transaction writing one line on each participant, then whole-cluster
// power failure and recovery over the log those transactions left.
func probeCluster() (crossUS, recoverMS float64) {
	opts := core.DefaultOptions()
	opts.Paranoid = false
	cl := shard.NewServing(shard.Config{Shards: 4, CoresPerShard: cores, Seed: 42, Opts: opts})
	base := mem.NewAllocator(mem.NVM).AllocLines(footprintLines) // the same region on every shard's store
	n := 0
	exec := func(k int, th *sim.Thread) []shard.LineWrite {
		var img mem.Line
		img[0] = byte(n)
		return []shard.LineWrite{{Addr: base + mem.Addr(n%footprintLines)*mem.LineSize, Img: img}}
	}
	const calls = 500
	cross := timeCalls(calls, nil, func() {
		for i := 0; i < calls; i++ {
			n++
			cl.SubmitCross([]int{n % 4, (n + 1) % 4}, exec, nil)
		}
	})
	const recoveries = 5
	rec := timeCalls(recoveries, nil, func() {
		for i := 0; i < recoveries; i++ {
			cl.RecoverServing()
		}
	})
	return us(cross), rec / 1e6
}
