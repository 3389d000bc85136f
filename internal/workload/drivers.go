package workload

import (
	"fmt"
	"math/rand"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/kv"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/txds"
)

// Bench names a benchmark family from Table IV.
type Bench string

// The benchmark families of Table IV.
const (
	BenchHashMap     Bench = "HashMap"
	BenchBTree       Bench = "B-Tree"
	BenchRBTree      Bench = "RB-Tree"
	BenchSkipList    Bench = "SkipList"
	BenchEcho        Bench = "Echo"
	BenchHybridIndex Bench = "Hybrid-Index"
	BenchDual        Bench = "Dual"
)

// PMDKBenches lists the four micro-benchmark structures.
func PMDKBenches() []Bench {
	return []Bench{BenchHashMap, BenchBTree, BenchRBTree, BenchSkipList}
}

// Config parameterizes one run.
type Config struct {
	Seed int64

	Instances          int // consolidated benchmark copies (one domain each)
	ThreadsPerInstance int

	ValueSize        int // bytes per value
	FootprintKB      int // per-transaction write footprint
	BatchesPerThread int // transactions per thread
	KeySpace         int // keys per instance
	Prepopulate      int // keys inserted before measurement
	PrepopValueSize  int // value size used during prepopulation (0 = ValueSize)

	Persistent bool // data in NVM (durable txs) vs DRAM (volatile txs)

	MemApps      int // LLC-hungry background threads (own domains)
	MemAppWindow int // bytes each sweeps over

	// Long-running read-only transactions (Fig. 8): every LongROEvery-th
	// operation on a thread is a read-only batch of LongROBytes instead
	// of a put batch. Zero disables.
	LongROEvery int
	LongROBytes int

	// Geometry overrides the Table III machine configuration when
	// non-nil (tests use a shrunken hierarchy). Cores is always derived
	// from the thread count.
	Geometry *mem.Config

	// Trace attaches an event recorder to the run's engine; the full
	// stream comes back in Result.TraceEvents.
	Trace bool
}

// DefaultConfig is the Figure 6 shape: four instances of four threads,
// 1 KB values, 100 KB transactions, two memory-intensive apps.
func DefaultConfig() Config {
	return Config{
		Seed:               42,
		Instances:          4,
		ThreadsPerInstance: 4,
		ValueSize:          1024,
		FootprintKB:        100,
		BatchesPerThread:   8,
		KeySpace:           32 << 10, // large enough that true conflicts are rare
		Prepopulate:        4 << 10,
		Persistent:         true,
		MemApps:            2,
		MemAppWindow:       32 << 20,
	}
}

// Result carries one (system, benchmark) measurement. Experiment and
// Wall are filled in by the harness plan layer (see plan.go); the rest
// by the benchmark drivers.
type Result struct {
	Experiment  string
	System      string
	Bench       Bench
	FootprintKB int
	Seed        int64
	Stats       stats.Stats
	Elapsed     sim.Time      // simulated wall-clock of the run
	Wall        time.Duration // host wall-clock spent simulating

	// TraceEvents is the run's full event stream when Config.Trace was
	// set, nil otherwise. It is deliberately absent from the JSON record
	// (see resultJSON): traces go to their own file in Chrome format.
	TraceEvents []trace.Event

	// Crash-sweep runs only (see RunCrashSweep): the injected crash
	// point, its 1-based visit index, and the recovery verdict ("ok" or
	// "fail: <violated invariant>"). Empty for experiment runs.
	Point   string
	Visit   int
	Verdict string

	// Sharded scale-out runs only (experiment "scale"): the shard count
	// of the cluster and its cross-shard 2PC commit/abort totals. Stats
	// counts local (single-shard) transactions.
	Shards       int
	CrossCommits uint64
	CrossAborts  uint64

	// Recovery runs only (experiment "recovery"): what the post-crash
	// recovery pass examined and applied, and its modeled per-phase
	// simulated latencies (see core.RecoveryStats). All deterministic;
	// the host time of the pass folds into Wall.
	RecoveryScanned   int
	RecoveryApplied   int
	RecoveryScanPS    sim.Time
	RecoveryReplayPS  sim.Time
	RecoveryPersistPS sim.Time
}

// Throughput returns committed transactions per simulated second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Commits) / r.Elapsed.Seconds()
}

// opsPerBatch converts the footprint knob into puts per transaction.
func (c Config) opsPerBatch() int {
	n := c.FootprintKB * 1024 / c.ValueSize
	if n < 1 {
		n = 1
	}
	return n
}

// arenasFor carves per-instance memory arenas: consolidated benchmarks
// model separate processes, so their heaps must not share cache lines
// (false line sharing across conflict domains would be both unrealistic
// and — for two serialized slow-path transactions — unresolvable). The
// DRAM split leaves room at the top for the memory-app sweep windows.
func arenasFor(cfg Config) (dram, nvm []*mem.Allocator) {
	reserve := mem.Addr(cfg.MemApps*cfg.MemAppWindow) + (64 << 20)
	return mem.SplitRegion(mem.DRAM, cfg.Instances, reserve),
		mem.SplitRegion(mem.NVM, cfg.Instances, 0)
}

// dataArenas returns the arena set matching cfg.Persistent.
func dataArenas(cfg Config) []*mem.Allocator {
	d, n := arenasFor(cfg)
	if cfg.Persistent {
		return n
	}
	return d
}

// dsKV is the common surface of the four PMDK structures.
type dsKV interface {
	Put(m txds.Mem, k uint64, v []byte)
	Head() mem.Addr
}

// hashBuckets sizes a hash table so chains stay at one or two nodes —
// the short-latency point lookup that keeps the PMDK hashmap benchmark
// out of capacity trouble in the paper.
func hashBuckets(keySpace int) int {
	n := 1
	for n < keySpace/2 {
		n <<= 1
	}
	if n < 64 {
		n = 64
	}
	return n
}

func makeDS(b Bench, setup txds.Mem, al *mem.Allocator, keySpace int) dsKV {
	switch b {
	case BenchHashMap:
		return txds.NewHashMap(setup, al, hashBuckets(keySpace))
	case BenchBTree:
		return txds.NewBTree(setup, al)
	case BenchRBTree:
		return txds.NewRBTree(setup, al)
	case BenchSkipList:
		return txds.NewSkipList(setup, al)
	default:
		panic(fmt.Sprintf("workload: %s is not a PMDK structure", b))
	}
}

// attachDS rebinds the PMDK structure of kind b whose header is at head
// to allocator al.
func attachDS(b Bench, head mem.Addr, al *mem.Allocator) dsKV {
	switch b {
	case BenchHashMap:
		return txds.AttachHashMap(head, al)
	case BenchBTree:
		return txds.AttachBTree(head, al)
	case BenchRBTree:
		return txds.AttachRBTree(head, al)
	case BenchSkipList:
		return txds.AttachSkipList(head, al)
	default:
		panic(fmt.Sprintf("workload: %s is not a PMDK structure", b))
	}
}

// driver is one run's engine and machine plus the bookkeeping every
// Table IV driver shares: it records each benchmark thread for the
// elapsed-time measurement and tells the memory apps to stop once the
// last benchmark thread has finished.
type driver struct {
	eng     *sim.Engine
	m       *core.Machine
	cfg     Config
	threads []*sim.Thread
	running int
	done    bool
}

// machineFor builds the run's driver, with a core for every benchmark
// thread and memory app.
func machineFor(spec SystemSpec, cfg Config) *driver {
	mc := mem.DefaultConfig()
	if cfg.Geometry != nil {
		mc = *cfg.Geometry
	}
	mc.Cores = cfg.Instances*cfg.ThreadsPerInstance + cfg.MemApps
	eng := sim.NewEngine(cfg.Seed)
	if cfg.Trace {
		eng.SetTracer(trace.NewRecorder())
	}
	return &driver{eng: eng, m: core.NewMachine(eng, mc, spec.Opts), cfg: cfg}
}

// spawn starts benchmark thread name, whose body runs on a context in
// conflict domain domain.
func (d *driver) spawn(name string, domain int, body func(th *sim.Thread, c *core.Ctx)) {
	d.running++
	th := d.eng.Spawn(name, func(th *sim.Thread) {
		body(th, d.m.NewCtx(th, domain))
		d.running--
		if d.running == 0 {
			d.done = true
		}
	})
	d.threads = append(d.threads, th)
}

// rng returns benchmark thread t of instance inst's random source.
func (d *driver) rng(inst, t int) *rand.Rand {
	return rand.New(rand.NewSource(d.cfg.Seed + int64(inst*100+t)))
}

// finish spawns the memory apps, runs the engine to completion and
// aggregates stats over the first domains conflict domains, measuring
// elapsed time as the slowest benchmark thread.
func (d *driver) finish(spec SystemSpec, b Bench, domains int) Result {
	d.spawnMemApps()
	d.eng.Run()
	var agg stats.Stats
	for dom := 0; dom < domains; dom++ {
		agg.Add(d.m.DomainStats(dom))
	}
	var elapsed sim.Time
	for _, th := range d.threads {
		if th.Clock() > elapsed {
			elapsed = th.Clock()
		}
	}
	agg.Elapsed = elapsed
	return Result{
		System:      spec.Name,
		Bench:       b,
		FootprintKB: d.cfg.FootprintKB,
		Seed:        d.cfg.Seed,
		Stats:       agg,
		Elapsed:     elapsed,
		TraceEvents: d.m.TraceEvents(),
	}
}

// drawKey draws one key uniformly from the instance key space.
func (c Config) drawKey(rng *rand.Rand) uint64 {
	return uint64(rng.Intn(c.KeySpace)) + 1
}

// drawPairs draws n keys, each paired with its value cut from vals.
func (c Config) drawPairs(rng *rand.Rand, n int, vals valuePattern) []kv.KV {
	pairs := make([]kv.KV, n)
	for i := range pairs {
		k := c.drawKey(rng)
		pairs[i] = kv.KV{Key: k, Val: vals.value(k)}
	}
	return pairs
}

// prepopulate hands put keys 1..Prepopulate in order, each with its
// deterministic prepopulation value.
func (c Config) prepopulate(put func(k uint64, v []byte)) {
	vals := newValuePattern(c.prepopValue())
	for k := uint64(1); k <= uint64(c.Prepopulate); k++ {
		put(k, vals.value(k))
	}
}

// valuePattern is what every deterministic value of one size is cut
// from. Key k's value holds byte(k+i) at offset i, which repeats every
// 256 keys, so it is the slice p[k%256 : k%256+size] of one pattern
// p[j] = byte(j). The values are shared and read-only: every put copies
// its value into simulated memory, and nothing writes or keeps one.
type valuePattern []byte

// newValuePattern builds the pattern for size-byte values.
func newValuePattern(size int) valuePattern {
	p := make(valuePattern, size+255)
	for j := range p {
		p[j] = byte(j)
	}
	return p
}

// value returns key k's value, capped at its length so an append
// cannot write into the pattern.
func (p valuePattern) value(k uint64) []byte {
	off := int(k % 256)
	end := off + len(p) - 255
	return p[off:end:end]
}

// memAppLineCost is a memory app's streaming cost per line (bandwidth
// model).
const memAppLineCost = 120 * sim.Picosecond

// spawnMemApps launches the LLC-hungry background applications, each in
// its own conflict domain after the benchmark instances': each sweeps
// random lines of a private DRAM window non-transactionally until the
// last benchmark thread finishes, evicting everyone else's LLC lines
// along the way (Section III-C's graph500 observation).
func (d *driver) spawnMemApps() {
	cfg := d.cfg
	// Windows are carved from the top of usable DRAM (just below the log
	// area), far above the arenas the benchmarks draw from.
	for i := 0; i < cfg.MemApps; i++ {
		app := i
		d.eng.Spawn(fmt.Sprintf("memapp%d", app), func(th *sim.Thread) {
			c := d.m.NewCtx(th, cfg.Instances+app)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000+app)))
			base := mem.DRAMLogBase - mem.Addr((app+1)*cfg.MemAppWindow)
			for !d.done {
				c.PolluteLLC(base, cfg.MemAppWindow, 4096, memAppLineCost, rng)
			}
		})
	}
}

// prepopValue returns the value size used for prepopulation.
func (c Config) prepopValue() int {
	if c.PrepopValueSize > 0 {
		return c.PrepopValueSize
	}
	return c.ValueSize
}

// putBatch performs one transaction of puts. HashMaps take the
// copy-on-write path of PMDK's hashmap example: values materialize
// outside the transaction (private until published) and only the
// pointer splice is transactional, so hashmap transactions stay small.
// The tree structures keep data inline (PMDK's btree/rbtree examples
// store items in nodes), so the whole value is transactional state.
// Each value is cut from vals.
func putBatch(c *core.Ctx, ds dsKV, keys []uint64, vals valuePattern) {
	if h, ok := ds.(*txds.HashMap); ok {
		refs := make([]mem.Addr, len(keys))
		nt := c.NT()
		for i, k := range keys {
			refs[i] = txds.BuildValue(nt, h.Allocator(), vals.value(k))
		}
		c.Run(func(tx *core.Tx) {
			for i, k := range keys {
				h.PutRef(tx, k, refs[i])
			}
		})
		return
	}
	c.Run(func(tx *core.Tx) {
		for _, k := range keys {
			ds.Put(tx, k, vals.value(k))
		}
	})
}

// BenchMixed consolidates one instance of each PMDK structure — the
// Figure 7 configuration ("we consolidated four benchmarks with four
// threads").
const BenchMixed Bench = "Mixed"

// runPMDK runs the consolidated PMDK micro-benchmark: cfg.Instances
// copies of structure b (each its own conflict domain and key space),
// cfg.ThreadsPerInstance threads per copy doing batched puts of
// cfg.FootprintKB per transaction, plus memory-intensive apps. For
// BenchMixed, instance i hosts PMDK structure i mod 4.
func runPMDK(spec SystemSpec, b Bench, cfg Config, h *heap, vals valuePattern) Result {
	d := machineFor(spec, cfg)
	prefix := string(b)
	if b == BenchMixed {
		prefix = "mix"
	}
	instBench := func(i int) Bench {
		if b == BenchMixed {
			return PMDKBenches()[i%4]
		}
		return b
	}

	// Per-instance structures, prepopulated outside the measured run.
	dss := borrow(h, d.m.Store(), func(st *mem.Store) ([]*mem.Allocator, func([]*mem.Allocator) []dsKV) {
		arenas := dataArenas(cfg)
		heads := make([]mem.Addr, cfg.Instances)
		for i := range heads {
			ds := makeDS(instBench(i), st, arenas[i], cfg.KeySpace)
			cfg.prepopulate(func(k uint64, v []byte) { ds.Put(st, k, v) })
			heads[i] = ds.Head()
		}
		return arenas, func(arenas []*mem.Allocator) []dsKV {
			dss := make([]dsKV, len(heads))
			for i, head := range heads {
				dss[i] = attachDS(instBench(i), head, arenas[i])
			}
			return dss
		}
	})

	ops := cfg.opsPerBatch()
	for inst := 0; inst < cfg.Instances; inst++ {
		for t := 0; t < cfg.ThreadsPerInstance; t++ {
			inst, t := inst, t
			d.spawn(fmt.Sprintf("%s%d.%d", prefix, inst, t), inst, func(_ *sim.Thread, c *core.Ctx) {
				rng := d.rng(inst, t)
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					keys := make([]uint64, ops)
					for i := range keys {
						keys[i] = cfg.drawKey(rng)
					}
					putBatch(c, dss[inst], keys, vals)
				}
			})
		}
	}
	return d.finish(spec, b, cfg.Instances)
}

// runEcho runs consolidated Echo instances: one master + N-1 clients per
// instance; clients batch updates through rings, the master applies each
// drained batch in one durable transaction.
func runEcho(spec SystemSpec, cfg Config, h *heap, vals valuePattern) Result {
	d := machineFor(spec, cfg)
	ops := cfg.opsPerBatch()
	clients := cfg.ThreadsPerInstance - 1
	stores := borrow(h, d.m.Store(), func(st *mem.Store) ([]*mem.Allocator, func([]*mem.Allocator) []*kv.Echo) {
		dArenas, nArenas := arenasFor(cfg)
		built := make([]*kv.Echo, cfg.Instances)
		for i := range built {
			built[i] = kv.NewEcho(st, dArenas[i], nArenas[i], hashBuckets(cfg.KeySpace), clients, 4*ops, cfg.ValueSize)
			cfg.prepopulate(func(k uint64, v []byte) { built[i].Table.Put(st, k, v) })
		}
		return nArenas, func(nArenas []*mem.Allocator) []*kv.Echo {
			stores := make([]*kv.Echo, len(built))
			for i, e := range built {
				stores[i] = attachEcho(e, nArenas[i])
			}
			return stores
		}
	})

	for inst := 0; inst < cfg.Instances; inst++ {
		inst := inst
		clientsLeft := clients
		for cl := 0; cl < clients; cl++ {
			cl := cl
			d.spawn(fmt.Sprintf("echo%d.c%d", inst, cl), inst, func(th *sim.Thread, c *core.Ctx) {
				rng := d.rng(inst, cl)
				nt := c.NT()
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					for i := 0; i < ops; i++ {
						k := cfg.drawKey(rng)
						p := kv.KV{Key: k, Val: vals.value(k)}
						for !stores[inst].Rings[cl].TryPush(nt, p) {
							th.Advance(5 * sim.Microsecond)
							th.Sync()
						}
					}
				}
				clientsLeft--
			})
		}
		d.spawn(fmt.Sprintf("echo%d.m", inst), inst, func(th *sim.Thread, c *core.Ctx) {
			for {
				total := 0
				for cl := 0; cl < clients; cl++ {
					total += stores[inst].MasterStep(c, cl, ops)
				}
				if total == 0 {
					if clientsLeft == 0 && ringsEmpty(stores[inst], c) {
						break
					}
					th.Advance(5 * sim.Microsecond)
					th.Sync()
				}
			}
		})
	}
	return d.finish(spec, BenchEcho, cfg.Instances)
}

// attachEcho rebinds a prepopulated Echo store's table to nal, the NVM
// arena its values come from. The client rings keep their slots and
// allocate nothing, so their handles are shared as they are.
func attachEcho(e *kv.Echo, nal *mem.Allocator) *kv.Echo {
	return &kv.Echo{Table: txds.AttachHashMap(e.Table.Head(), nal), Rings: e.Rings}
}

func ringsEmpty(e *kv.Echo, c *core.Ctx) bool {
	nt := c.NT()
	for _, r := range e.Rings {
		if r.Len(nt) > 0 {
			return false
		}
	}
	return true
}

// runEchoLongRO is the Figure 8 workload: one Echo table, every thread
// issuing single-put transactions (1 KB values), with every
// LongROEvery-th operation replaced by a long-running read-only get
// batch of LongROBytes. All threads belong to one application, so to
// one conflict domain.
func runEchoLongRO(spec SystemSpec, cfg Config, h *heap, vals valuePattern) Result {
	d := machineFor(spec, cfg)
	store := borrow(h, d.m.Store(), func(st *mem.Store) ([]*mem.Allocator, func([]*mem.Allocator) *kv.Echo) {
		dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
		built := kv.NewEcho(st, dal, nal, 1<<15, 1, 8, cfg.ValueSize)
		cfg.prepopulate(func(k uint64, v []byte) { built.Table.Put(st, k, v) })
		return []*mem.Allocator{nal}, func(als []*mem.Allocator) *kv.Echo { return attachEcho(built, als[0]) }
	})
	roKeys := cfg.LongROBytes / cfg.ValueSize

	for t := 0; t < cfg.Instances*cfg.ThreadsPerInstance; t++ {
		t := t
		d.spawn(fmt.Sprintf("echoLR.%d", t), 0, func(_ *sim.Thread, c *core.Ctx) {
			rng := d.rng(0, t)
			for op := 0; op < cfg.BatchesPerThread; op++ {
				if cfg.LongROEvery > 0 && op%cfg.LongROEvery == cfg.LongROEvery-1 {
					// A contiguous slice of the keyspace at a random
					// offset: the read-set is exactly LongROBytes of
					// distinct values.
					start := rng.Intn(cfg.Prepopulate)
					keys := make([]uint64, roKeys)
					for i := range keys {
						keys[i] = uint64((start+i)%cfg.Prepopulate) + 1
					}
					store.ReadOnlyBatch(c, keys)
					continue
				}
				k := cfg.drawKey(rng)
				v := vals.value(k)
				c.Run(func(tx *core.Tx) {
					store.Table.Put(tx, k, v)
				})
			}
		})
	}
	return d.finish(spec, BenchEcho, 1)
}

// runHybridIndex is the Figure 9a workload: consolidated Hybrid-Index
// stores, threads inserting batches that touch the DRAM B-Tree and the
// NVM HashMap in one transaction.
func runHybridIndex(spec SystemSpec, cfg Config, h *heap, vals valuePattern) Result {
	d := machineFor(spec, cfg)
	stores := borrow(h, d.m.Store(), func(st *mem.Store) ([]*mem.Allocator, func([]*mem.Allocator) []*kv.HybridIndex) {
		dArenas, nArenas := arenasFor(cfg)
		built := make([]*kv.HybridIndex, cfg.Instances)
		for i := range built {
			built[i] = kv.NewHybridIndex(st, dArenas[i], nArenas[i], hashBuckets(cfg.KeySpace), cfg.ThreadsPerInstance)
			for _, p := range built[i].Parts {
				cfg.prepopulate(func(k uint64, v []byte) { p.Put(st, k, v) })
			}
		}
		return append(dArenas, nArenas...), func(arenas []*mem.Allocator) []*kv.HybridIndex {
			stores := make([]*kv.HybridIndex, len(built))
			for i, hi := range built {
				dal, nal := arenas[i], arenas[len(built)+i]
				stores[i] = &kv.HybridIndex{}
				for _, p := range hi.Parts {
					stores[i].Parts = append(stores[i].Parts, kv.HybridPart{
						Index: txds.AttachBTree(p.Index.Head(), dal),
						Table: txds.AttachHashMap(p.Table.Head(), nal),
					})
				}
			}
			return stores
		}
	})
	ops := cfg.opsPerBatch()
	for inst := 0; inst < cfg.Instances; inst++ {
		for t := 0; t < cfg.ThreadsPerInstance; t++ {
			inst, t := inst, t
			d.spawn(fmt.Sprintf("hikv%d.%d", inst, t), inst, func(_ *sim.Thread, c *core.Ctx) {
				rng := d.rng(inst, t)
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					stores[inst].PutBatch(c, t, cfg.drawPairs(rng, ops, vals))
				}
			})
		}
	}
	return d.finish(spec, BenchHybridIndex, cfg.Instances)
}

// runDual is the Figure 9b workload: consolidated Dual stores, half the
// threads serving foreground puts on the DRAM map, half draining the
// cross-referencing log into the NVM map.
func runDual(spec SystemSpec, cfg Config, h *heap, vals valuePattern) Result {
	d := machineFor(spec, cfg)
	ops := cfg.opsPerBatch()
	fg := cfg.ThreadsPerInstance / 2
	if fg == 0 {
		fg = 1
	}
	bg := cfg.ThreadsPerInstance - fg
	stores := borrow(h, d.m.Store(), func(st *mem.Store) ([]*mem.Allocator, func([]*mem.Allocator) []*kv.Dual) {
		dArenas, nArenas := arenasFor(cfg)
		built := make([]*kv.Dual, cfg.Instances)
		for i := range built {
			built[i] = kv.NewDual(st, dArenas[i], nArenas[i], hashBuckets(cfg.KeySpace), fg, 8*ops, cfg.ValueSize)
			for _, p := range built[i].Parts {
				cfg.prepopulate(func(k uint64, v []byte) {
					p.Front.Put(st, k, v)
					p.Back.Put(st, k, v)
				})
			}
		}
		return append(dArenas, nArenas...), func(arenas []*mem.Allocator) []*kv.Dual {
			stores := make([]*kv.Dual, len(built))
			for i, du := range built {
				dal, nal := arenas[i], arenas[len(built)+i]
				stores[i] = &kv.Dual{}
				for _, p := range du.Parts {
					stores[i].Parts = append(stores[i].Parts, kv.DualPart{
						Front: txds.AttachHashMap(p.Front.Head(), dal),
						Back:  txds.AttachHashMap(p.Back.Head(), nal),
						XLog:  p.XLog,
					})
				}
			}
			return stores
		}
	})
	for inst := 0; inst < cfg.Instances; inst++ {
		inst := inst
		fgLeft := fg
		for t := 0; t < fg; t++ {
			t := t
			d.spawn(fmt.Sprintf("dual%d.f%d", inst, t), inst, func(_ *sim.Thread, c *core.Ctx) {
				rng := d.rng(inst, t)
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					stores[inst].FrontPut(c, t, cfg.drawPairs(rng, ops, vals))
				}
				fgLeft--
			})
		}
		for t := 0; t < bg; t++ {
			t := t
			d.spawn(fmt.Sprintf("dual%d.b%d", inst, t), inst, func(th *sim.Thread, c *core.Ctx) {
				for {
					n := stores[inst].BackendStep(c, t%fg, ops)
					if n == 0 {
						if fgLeft == 0 && stores[inst].Parts[t%fg].XLog.Len(c.NT()) == 0 {
							break
						}
						th.Advance(5 * sim.Microsecond)
						th.Sync()
					}
				}
			})
		}
	}
	return d.finish(spec, BenchDual, cfg.Instances)
}

// Run runs one benchmark family on a heap of its own (one borrower).
func Run(spec SystemSpec, b Bench, cfg Config) Result {
	return run(spec, b, cfg, &heap{left: 1})
}

// run dispatches a benchmark family, its prepopulated structures
// borrowed from h and the values it writes cut from one pattern.
func run(spec SystemSpec, b Bench, cfg Config, h *heap) Result {
	vals := newValuePattern(cfg.ValueSize)
	switch b {
	case BenchHashMap, BenchBTree, BenchRBTree, BenchSkipList, BenchMixed:
		return runPMDK(spec, b, cfg, h, vals)
	case BenchEcho:
		if cfg.LongROEvery > 0 {
			return runEchoLongRO(spec, cfg, h, vals)
		}
		return runEcho(spec, cfg, h, vals)
	case BenchHybridIndex:
		return runHybridIndex(spec, cfg, h, vals)
	case BenchDual:
		return runDual(spec, cfg, h, vals)
	default:
		panic(fmt.Sprintf("workload: unknown benchmark %q", b))
	}
}
