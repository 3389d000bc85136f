// Package shard scales the simulator past one machine: it partitions
// the line-address space across N independent sim.Engine shards — each
// with its own core.Machine, WAL rings and caches — fans them out over
// real OS threads via internal/harness, and layers a 2PC-style
// cross-shard commit protocol on the existing WAL so multi-shard
// transactions are crash-atomic across machines.
//
// The protocol reuses the repo's two durability primitives end to end:
// per-shard prepare and apply records travel the ordinary redo rings
// (wal.RecWrite + wal.RecPrepare, then a wal.RecCommit apply mark), and
// the coordinator's decision record lives in a dedicated decision log
// on shard 0 plus a single-line resolution cell — the same crash-atomic
// single-line-cell pattern as the checkpoint LSN. A crash at any step
// recovers to a consistent cross-shard prefix: decided transactions
// complete everywhere, undecided ones vanish everywhere.
//
// Transactions that touch one shard keep the existing fast path
// unchanged — they are ordinary core.Ctx.Run transactions on that
// shard's machine. Only cross-shard transactions route through the
// coordinator. Per-shard traces stay deterministic and merge by virtual
// time into one stream (MergedTrace), byte-identical at any OS-thread
// parallelism.
package shard

import (
	"fmt"

	"uhtm/internal/core"
	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/wal"
)

// GIDBase is the low end of the cross-shard transaction ID space. The
// high bit keeps global IDs disjoint from every machine's local
// transaction counter, so a shard's redo ring can carry both without
// collision.
const GIDBase uint64 = 1 << 63

// DecisionReserve is carved off the top of every shard's NVM log area
// (core.Options.ReserveLogArea); shard 0 places the resolution cell in
// its first line and the coordinator decision log after it. All shards
// reserve it so their redo rings stay identically sized.
const DecisionReserve mem.Addr = 64 << 10

// Config sizes one sharded cluster and its deterministic workload.
type Config struct {
	Shards        int // engine shards (>= 1)
	CoresPerShard int // simulated cores per shard
	Domains       int // conflict domains per shard (core c → domain c%Domains, each working its own pool segment)

	Rounds        int // work rounds (local batch + cross-shard wave each)
	TxPerCore     int // local transactions per core per round
	WritesPerTx   int // NVM lines written per transaction (local and cross)
	ReadsPerTx    int // NVM lines read per local transaction
	CrossPerRound int // cross-shard transactions per round (0 when Shards < 2), each over two shards
	LinesPerShard int // NVM data pool size per shard

	Seed int64 // engine seed base (shard k runs at Seed+k)
	Par  int   // OS-thread parallelism for shard fan-out (<= 0: GOMAXPROCS)

	Trace bool         // record per-shard event traces (see MergedTrace)
	Opts  core.Options // base machine options; ReserveLogArea is overridden
	Geom  *mem.Config  // geometry override (nil: mem.DefaultConfig); Cores is overridden
}

// normalized clamps the degenerate corners so every Config drives a
// well-formed cluster.
func (cfg Config) normalized() Config {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.CoresPerShard < 1 {
		cfg.CoresPerShard = 1
	}
	if cfg.Domains < 1 {
		cfg.Domains = 1
	}
	if cfg.Shards < 2 {
		cfg.CrossPerRound = 0
	}
	if cfg.LinesPerShard < 1 {
		cfg.LinesPerShard = 1
	}
	return cfg
}

// Shard is one engine world: a machine, its session driver, and its
// slice of the partitioned address space.
type Shard struct {
	id    int
	label string // "s<id>", the shard's harness.Spec System label
	eng   *sim.Engine
	m     *core.Machine
	sess  *harness.Session
	pool  []mem.Addr // home lines (global item g = i*Shards+id at index i)
	hook  func(point string)
}

// ID returns the shard's index.
func (sh *Shard) ID() int { return sh.id }

// Machine returns the shard's machine (verification, stats).
func (sh *Shard) Machine() *core.Machine { return sh.m }

// Engine returns the shard's engine.
func (sh *Shard) Engine() *sim.Engine { return sh.eng }

// hit fires one shard-level injection point.
func (sh *Shard) hit(point string) {
	if sh.hook != nil {
		sh.hook(point)
	}
}

// Cluster is a set of shards plus the cross-shard commit coordinator
// state (decision log and resolution cell on shard 0) and the ground-
// truth record of every cross-shard transaction the canned driver
// issued.
type Cluster struct {
	cfg    Config
	shards []*Shard

	decLog   *wal.Log // coordinator decision log (shard 0's store)
	cellAddr mem.Addr // resolution cell: highest durably resolved GID seq

	seq    uint64     // GID sequence (next = seq+1)
	waves  []*crossTx // every transaction the canned driver issued, in seq order
	halted bool

	// decidedAbort and resolvedSeq mirror the coordinator's durable
	// decision state for the shards' prepare resolvers (see resolveGID):
	// GID sequences with a durable abort decision, and the highest fully
	// resolved sequence (the resolution cell). Written only in
	// single-shard coordinator phases; read concurrently by reclamation
	// passes in barriered multi-shard phases, so no locking is needed.
	decidedAbort map[uint64]bool
	resolvedSeq  uint64

	crossCommits uint64
	crossAborts  uint64
}

// New builds the cluster: one engine+machine per shard with the
// decision area reserved, per-shard NVM pools prepopulated and
// persisted (the durable baseline), and the coordinator structures on
// shard 0.
func New(cfg Config) *Cluster {
	cfg = cfg.normalized()
	c := newCluster(cfg, cfg.Trace)
	for _, sh := range c.shards {
		al := mem.NewAllocator(mem.NVM)
		for i := 0; i < cfg.LinesPerShard; i++ {
			la := al.AllocLines(1)
			// Prepopulate with the global item number so the durable
			// baseline identifies the partition map.
			sh.m.Store().WriteU64(la, 0xD000_0000+uint64(i*cfg.Shards+sh.id))
			sh.pool = append(sh.pool, la)
		}
		sh.m.Store().PersistLiveNVM()
	}
	return c
}

// newCluster builds the shards (engine, machine, session each, with
// DecisionReserve carved off every log area) and the coordinator
// decision log and resolution cell on shard 0. It is the construction
// path shared by the canned workload driver (New) and the serving
// front-end (NewServing); the per-shard machine construction sequence
// must stay byte-identical so goldens pinned against either path keep
// holding.
func newCluster(cfg Config, traced bool) *Cluster {
	c := &Cluster{cfg: cfg}
	for k := 0; k < cfg.Shards; k++ {
		eng := sim.NewEngine(cfg.Seed + int64(k))
		if traced {
			eng.SetTracer(trace.NewRecorder())
		}
		g := mem.DefaultConfig()
		if cfg.Geom != nil {
			g = *cfg.Geom
		}
		g.Cores = cfg.CoresPerShard
		opts := cfg.Opts
		opts.ReserveLogArea = DecisionReserve
		m := core.NewMachine(eng, g, opts)
		c.shards = append(c.shards, &Shard{id: k, label: fmt.Sprintf("s%d", k), eng: eng, m: m, sess: harness.NewSession(eng)})
	}
	decBase := mem.NVMLogBase + mem.LogAreaSize - DecisionReserve
	c.cellAddr = decBase
	c.decLog = wal.NewLog(c.shards[0].m.Store(), decBase+mem.LineSize, DecisionReserve-mem.LineSize, true)
	c.decLog.SetPointPrefix(PointPrefixDecision)
	c.decidedAbort = make(map[uint64]bool)
	// Incremental reclamation consults the coordinator's decision state
	// before truncating a prepared-but-unapplied record group: an
	// undecided prepare is the only durable evidence of the transaction
	// and must survive.
	for _, sh := range c.shards {
		sh.m.SetPrepareResolver(c.resolveGID)
	}
	return c
}

// resolveGID answers a machine's prepare resolver: a prepared record
// group for txID is disposable when the coordinator durably decided
// abort for it (the group will never be applied) or the transaction is
// at or below the resolution cell (fully applied and registered
// everywhere). Both facts are durable before the in-memory mirrors here
// are updated, so truncation never outruns the decision log.
func (c *Cluster) resolveGID(txID uint64) bool {
	if txID < GIDBase {
		return false
	}
	seq := txID &^ GIDBase
	return seq <= c.resolvedSeq || c.decidedAbort[seq]
}

// Shards returns the cluster's shards in index order.
func (c *Cluster) Shards() []*Shard { return c.shards }

// Halted reports whether an injected crash stopped the cluster.
func (c *Cluster) Halted() bool { return c.halted }

// CrossCommits returns the number of cross-shard transactions the
// coordinator decided to commit.
func (c *Cluster) CrossCommits() uint64 { return c.crossCommits }

// CrossAborts returns the number of cross-shard transactions aborted by
// wave conflict admission.
func (c *Cluster) CrossAborts() uint64 { return c.crossAborts }

// SetHook installs (or, with nil, removes) the crash-injection hook on
// shard k: the machine, its store and rings, the shard-level 2PC points,
// and — on shard 0 — the coordinator decision log. The hook runs on the
// shard's simulated threads, so it may call that shard's
// sim.Engine.HaltNow. Installing a hook on at most one shard keeps a
// Par > 1 cluster race-free; counting sweeps install one private
// counter per shard.
func (c *Cluster) SetHook(k int, f func(point string)) {
	sh := c.shards[k]
	sh.hook = f
	sh.m.SetCrashpoint(f)
	if k == 0 {
		c.decLog.SetCrashpoint(f)
	}
}

// Result summarizes one cluster run.
type Result struct {
	Stats        stats.Stats // aggregated per-shard machine counters (local HTM)
	CrossCommits uint64      // committed cross-shard transactions
	CrossAborts  uint64      // admission-aborted cross-shard transactions
	Elapsed      sim.Time    // max shard virtual time
	Halted       bool        // an injected crash stopped the run
}

// pick is the deterministic mixing function for pool-index choices —
// the same line picks on every run, so enumeration predicts every
// replay (mirrors internal/crash's pick).
func pick(t, k, i, n int) int {
	return ((t*131+k*17+i*7+(t^k)*3)%n + n) % n
}

// Fanout runs f once per listed shard on the harness worker pool and
// reports whether any shard halted; a halt also stops Run until
// RecoverServing. It is the cluster's one phase barrier — the local
// batches, the 2PC and reclamation phases, and the server's engine-loop
// waves all fan out through it. Execute's determinism guarantees make
// the result independent of Par.
func (c *Cluster) Fanout(shards []*Shard, f func(sh *Shard) bool) bool {
	specs := make([]harness.Spec[bool], len(shards))
	for i, sh := range shards {
		sh := sh
		specs[i] = harness.Spec[bool]{
			Experiment: "shard",
			System:     sh.label,
			Seed:       c.cfg.Seed + int64(sh.id),
			Run:        func() bool { return f(sh) },
		}
	}
	halted := false
	for _, h := range harness.Execute(specs, c.cfg.Par) {
		halted = halted || h
	}
	c.halted = c.halted || halted
	return halted
}

// localBatch runs one round of single-shard transactions on sh: one
// body per core, TxPerCore ordinary fast-path transactions each. Each
// core works the pool segment of its conflict domain, so the domain
// count is a real contention knob: D domains split the same pool among
// D disjoint thread groups, cutting cross-thread collisions by ~D.
// name is the batch name, "local.r<round>". Returns whether the shard
// halted.
func (c *Cluster) localBatch(sh *Shard, round int, name string) bool {
	cfg := c.cfg
	seg := cfg.LinesPerShard / cfg.Domains
	if seg < 1 {
		seg = 1
	}
	bodies := make([]func(*sim.Thread), cfg.CoresPerShard)
	for t := 0; t < cfg.CoresPerShard; t++ {
		t := t
		bodies[t] = func(th *sim.Thread) {
			dom := t % cfg.Domains
			base := (dom * seg) % cfg.LinesPerShard
			ctx := sh.m.NewCtx(th, dom)
			for k := 0; k < cfg.TxPerCore; k++ {
				ctx.Run(func(tx *core.Tx) {
					for i := 0; i < cfg.ReadsPerTx; i++ {
						li := base + pick(sh.id*31+t, round*13+k, i+23, seg)
						tx.ReadU64(sh.pool[li])
					}
					for i := 0; i < cfg.WritesPerTx; i++ {
						li := base + pick(sh.id*31+t, round*13+k, i, seg)
						tx.WriteU64(sh.pool[li], tx.ID()<<16|uint64(i+1))
					}
				})
			}
		}
	}
	return sh.Do(name, bodies...)
}

// Run drives the cluster to completion (or to an injected halt): per
// round, a local batch on every shard, then the cross-shard wave —
// commit (prepare, decide, apply), per-shard log reclamation, and the
// coordinator's resolution-cell advance. Each phase is a barrier across
// shards; a halted shard stops the cluster after the phase in which it
// died (the other shards complete that phase, exactly as independent
// nodes would keep running until they notice the coordinator is gone).
func (c *Cluster) Run() Result {
	for r := 0; r < c.cfg.Rounds && !c.halted; r++ {
		name := fmt.Sprintf("local.r%d", r)
		if c.Fanout(c.shards, func(sh *Shard) bool { return c.localBatch(sh, r, name) }) || c.cfg.CrossPerRound == 0 {
			continue
		}
		wave := c.buildWave(r)
		if _, halted := c.commit(wave); halted || c.Fanout(c.shards, c.reclaim) {
			break
		}
		c.Fanout(c.shards[:1], func(sh *Shard) bool { return c.resolve(sh, wave[len(wave)-1].seq) })
	}
	return c.Result()
}

// Result returns the cluster's totals so far: every shard's machine
// counters summed, the latest shard virtual time, and the cross-shard
// counters. Run returns it as the run summary; a server reports it in
// STATS.
func (c *Cluster) Result() Result {
	res := Result{
		CrossCommits: c.crossCommits,
		CrossAborts:  c.crossAborts,
		Elapsed:      c.maxNow(),
		Halted:       c.halted,
	}
	for _, sh := range c.shards {
		res.Stats.Add(sh.m.Stats())
	}
	res.Stats.Elapsed = res.Elapsed
	return res
}
