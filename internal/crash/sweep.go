package crash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/wal"
)

// Target is a system under test for the crash sweep. Every Start must
// build a fresh, deterministic instance, so the enumeration pass
// predicts the injection points of every replay.
type Target interface {
	// Label names the target and its seed for Outcome records.
	Label() (name string, seed int64)
	// Start builds a fresh instance with in installed at every
	// injection point and runs it to completion, or until in.Hit
	// reports a halt and the target halts its own engine.
	Start(in *Injector) Instance
}

// Instance is one run of a Target, stopped at completion or at the
// injected crash.
type Instance interface {
	// Complete reports why an uninjected run fell short of finishing
	// all its work (nil when it finished) — the enumeration precondition.
	Complete() error
	// Counters returns the machine counters and virtual time at the
	// end of the run.
	Counters() (stats.Stats, sim.Time)
	// Recover power-fails the instance and runs its recovery.
	Recover() wal.ReplayStats
	// Verify checks the recovered state, returning "" when every
	// recovery invariant holds, else a description of the violation.
	Verify() string
}

// Workload parameterizes one crash-sweep workload: a deterministic mix
// of durable transactions over shared NVM and DRAM line pools, sized so
// that write sets overflow the (deliberately tiny) cache hierarchy —
// exercising the undo log, the DRAM cache and the slow path — and so
// that overlapping line picks produce conflicts and aborts. The same
// Workload value always produces the same simulation, which is what
// lets an enumeration pass predict the injection points of every replay.
type Workload struct {
	Name            string
	Threads         int
	TxPerThread     int
	NVMLines        int // shared NVM data pool (prepopulated, durable baseline)
	DRAMLines       int // shared DRAM data pool
	NVMWritesPerTx  int
	DRAMWritesPerTx int
	ReadsPerTx      int
	Seed            int64
}

// SmallWorkload is the exhaustive-sweep shape: every (point, visit)
// pair is injected — a few hundred replays.
func SmallWorkload() Workload {
	return Workload{
		Name:            "crash-small",
		Threads:         2,
		TxPerThread:     5,
		NVMLines:        10,
		DRAMLines:       8,
		NVMWritesPerTx:  4,
		DRAMWritesPerTx: 3,
		ReadsPerTx:      2,
		Seed:            42,
	}
}

// LargeWorkload is the sampled-sweep shape: tens of thousands of
// injection points, of which a seeded-random subset is injected.
func LargeWorkload() Workload {
	return Workload{
		Name:            "crash-large",
		Threads:         4,
		TxPerThread:     30,
		NVMLines:        64,
		DRAMLines:       48,
		NVMWritesPerTx:  6,
		DRAMWritesPerTx: 4,
		ReadsPerTx:      3,
		Seed:            42,
	}
}

// geometry shrinks the Table III machine so transactional footprints
// overflow on-chip capacity within a handful of writes.
func (w Workload) geometry() mem.Config {
	cfg := mem.DefaultConfig()
	cfg.Cores = w.Threads
	cfg.L1Size = 8 * mem.LineSize // 8 lines: L1 spills immediately
	cfg.L1Ways = 2
	cfg.LLCSize = 8 * mem.LineSize // 8 lines: LLC evicts live tx lines to undo log / DRAM cache
	cfg.LLCWays = 4
	cfg.DRAMCacheSize = 64 * mem.LineSize
	cfg.DRAMCacheWays = 4
	return cfg
}

// Pick chooses a pool index in [0, n) for write i of transaction k on
// thread t — a fixed mixing function, so retried attempts touch the
// same lines, different threads overlap often enough to conflict, and
// a counting run predicts every replay's picks. The sharded cluster
// draws its lines with it too.
func Pick(t, k, i, n int) int {
	return ((t*131+k*17+i*7+(t^k)*3)%n + n) % n
}

// runState is one built simulation plus the ground truth the oracle
// needs: the post-setup durable baseline, every attempt's intended NVM
// writes (keyed by hardware transaction ID), and the IDs of
// transactions whose commit was acknowledged to the workload.
type runState struct {
	w        Workload
	eng      *sim.Engine
	elapsed  sim.Time
	m        *core.Machine
	nvmPool  []mem.Addr
	dramPool []mem.Addr
	baseline map[mem.Addr]mem.Line
	intents  map[uint64]map[mem.Addr]uint64 // txID → final value per NVM line
	acked    []uint64
}

// Label implements Target.
func (w Workload) Label() (string, int64) { return w.Name, w.Seed }

// Start implements Target: it constructs the engine, machine, pools and
// threads, installs the injector, and runs the workload.
func (w Workload) Start(in *Injector) Instance {
	eng := sim.NewEngine(w.Seed)
	opts := core.DefaultOptions()
	opts.TrackCommits = true
	m := core.NewMachine(eng, w.geometry(), opts)
	m.SetCrashpoint(in.HaltHook("", eng))
	st := &runState{
		w:       w,
		eng:     eng,
		m:       m,
		intents: make(map[uint64]map[mem.Addr]uint64),
	}
	nvmAl := mem.NewAllocator(mem.NVM)
	dramAl := mem.NewAllocator(mem.DRAM)
	for i := 0; i < w.NVMLines; i++ {
		la := nvmAl.AllocLines(1)
		m.Store().WriteU64(la, 0xA000+uint64(i))
		st.nvmPool = append(st.nvmPool, la)
	}
	for i := 0; i < w.DRAMLines; i++ {
		st.dramPool = append(st.dramPool, dramAl.AllocLines(1))
	}
	// Non-transactional setup is durable before any transaction runs —
	// the formatted-heap state crash recovery falls back to.
	m.Store().PersistLiveNVM()
	st.baseline = Baseline(m)
	for t := 0; t < w.Threads; t++ {
		t := t
		eng.Spawn(fmt.Sprintf("crash-w%d", t), func(th *sim.Thread) {
			w.thread(st, th, t)
		})
	}
	st.elapsed = eng.Run()
	return st
}

// thread is one worker's body: TxPerThread durable transactions, each
// recording its intended writes before committing.
func (w Workload) thread(st *runState, th *sim.Thread, t int) {
	c := st.m.NewCtx(th, 0)
	for k := 0; k < w.TxPerThread; k++ {
		// Thread 0 runs full log-reclamation passes along the way, so
		// the sweep also lands crashes inside ReclaimLogs (in-place
		// image persists, ring reclamation). Three passes, not one:
		// each checkpoint keeps its predecessor as the torn-write
		// fallback and truncates the group before that, so only the
		// third pass actually reclaims checkpoint-ring space — the
		// sweep needs it to land crashes in the ring's own truncation
		// (wal.ckpt.reclaim.ctrl).
		if t == 0 &&
			(k == w.TxPerThread/4 || k == w.TxPerThread/2 || k == 3*w.TxPerThread/4) {
			st.m.ReclaimLogs()
		}
		var id uint64
		c.Run(func(tx *core.Tx) {
			id = tx.ID()
			writes := make(map[mem.Addr]uint64, w.NVMWritesPerTx)
			dram := func() {
				for i := 0; i < w.DRAMWritesPerTx; i++ {
					la := st.dramPool[Pick(t, k, i, len(st.dramPool))]
					tx.WriteU64(la, id<<16|uint64(0x8000+i))
				}
			}
			nvm := func() {
				for i := 0; i < w.ReadsPerTx; i++ {
					tx.ReadU64(st.nvmPool[Pick(t, k, i+23, len(st.nvmPool))])
				}
				for i := 0; i < w.NVMWritesPerTx; i++ {
					la := st.nvmPool[Pick(t, k, i, len(st.nvmPool))]
					v := id<<16 | uint64(i+1)
					tx.WriteU64(la, v)
					writes[la] = v
				}
			}
			// Even threads write DRAM first, so the later NVM traffic
			// evicts those lines from the tiny LLC while the transaction
			// is live (undo-log wal.undo.* points); odd threads write NVM
			// first, so conflict aborts land after redo state exists
			// (core.abort.mark).
			if t%2 == 0 {
				dram()
				nvm()
			} else {
				nvm()
				dram()
			}
			// Recorded before the commit protocol starts, so a crash
			// anywhere inside commit finds the intent on file.
			st.intents[id] = writes
		})
		st.acked = append(st.acked, id)
	}
}

// Enumerate runs the target once with a counting injector and returns
// the exhaustive injection list plus the per-point visit counts. The
// run must complete uncrashed.
func Enumerate(t Target) ([]Injection, map[string]int, error) {
	in := NewCounter()
	name, _ := t.Label()
	if err := t.Start(in).Complete(); err != nil {
		return nil, nil, fmt.Errorf("crash: %s enumeration run: %v", name, err)
	}
	if len(in.Hits()) == 0 {
		return nil, nil, fmt.Errorf("crash: %s fired no injection points", name)
	}
	return enumerate(in.Hits()), in.Hits(), nil
}

// Sample returns n distinct injections drawn deterministically from
// injs with the given seed (all of them when n >= len(injs)), in
// original order.
func Sample(injs []Injection, n int, seed int64) []Injection {
	if n >= len(injs) {
		out := make([]Injection, len(injs))
		copy(out, injs)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(injs))[:n]
	sort.Ints(idx)
	out := make([]Injection, 0, n)
	for _, i := range idx {
		out = append(out, injs[i])
	}
	return out
}

// Outcome is the result of one injected crash: where it was injected
// and whether recovery upheld every invariant.
type Outcome struct {
	Workload string
	Point    string
	Visit    int
	Seed     int64
	// Verdict is "ok", or "fail: <detail>" describing the violated
	// invariant.
	Verdict string
	Stats   stats.Stats     // machine counters at the crash
	Elapsed sim.Time        // virtual time of the crash
	Replay  wal.ReplayStats // what recovery replayed
}

// RunInjection replays the target, kills it at the injection, runs
// recovery, and verifies the recovery invariants. It never panics on an
// invariant violation — failures are reported in the Outcome so sweeps
// can tabulate them. An injection whose point or visit the run never
// reaches (an unknown point, a shard the target lacks) fails as
// "never reached".
func RunInjection(t Target, inj Injection) Outcome {
	out := Outcome{Point: inj.Point, Visit: inj.Visit}
	out.Workload, out.Seed = t.Label()
	in := Arm(inj)
	run := t.Start(in)
	out.Stats, out.Elapsed = run.Counters()
	if !in.Fired() {
		out.Verdict = fmt.Sprintf("fail: point %s visit %d never reached (saw %d visits)",
			inj.Point, inj.Visit, in.Hits()[inj.Point])
		return out
	}
	in.Disarm()
	out.Replay = run.Recover()
	if detail := run.Verify(); detail != "" {
		out.Verdict = "fail: " + detail
	} else {
		out.Verdict = "ok"
	}
	return out
}

// Complete implements Instance: the run must finish uncrashed with every
// transaction acknowledged.
func (st *runState) Complete() error {
	if st.eng.Halted() {
		return fmt.Errorf("halted unexpectedly")
	}
	if got, want := len(st.acked), st.w.Threads*st.w.TxPerThread; got != want {
		return fmt.Errorf("acked %d txs, want %d", got, want)
	}
	return nil
}

// Counters implements Instance.
func (st *runState) Counters() (stats.Stats, sim.Time) { return *st.m.Stats(), st.elapsed }

// Recover implements Instance: power failure, then redo-log replay.
func (st *runState) Recover() wal.ReplayStats {
	st.m.Crash()
	return st.m.Recover().ReplayStats
}

// Verify implements Instance: the committed-prefix oracle
// (VerifyRecovered) plus the invariants only the workload's own
// bookkeeping can check — every acknowledged transaction reached the
// commit log, every mid-commit transaction's durable images are
// exactly the writes it intended, and no DRAM survived the crash.
func (st *runState) Verify() string {
	m := st.m
	// Invariant 3: an acknowledged commit always reached the commit log
	// (finishCommit ran before the ack).
	committed := make(map[uint64]bool)
	for _, c := range m.CommitLog() {
		committed[c.ID] = true
	}
	for _, id := range st.acked {
		if !committed[id] {
			return fmt.Sprintf("acked tx %d missing from commit log", id)
		}
	}

	// Invariants 1, 2 and 4 (no redo record references DRAM).
	mids, detail := verifyRecovered(m, st.w.Threads, st.baseline)
	if detail != "" {
		return detail
	}
	// The oracle rebuilt each mid-commit image from the durable log;
	// hold it to what the transaction actually wrote.
	for _, mc := range mids {
		want, ok := st.intents[mc.id]
		if !ok {
			return fmt.Sprintf("durable commit mark for unknown tx %d", mc.id)
		}
		if len(mc.writes) != len(want) {
			return fmt.Sprintf("mid-commit tx %d: %d durable write images, %d intended", mc.id, len(mc.writes), len(want))
		}
		// The workload writes word 0 only: the rest of each line must
		// still be the baseline's.
		for la, v := range want {
			img, ok := mc.writes[la]
			base := st.baseline[la]
			if !ok || binary.LittleEndian.Uint64(img[:8]) != v || !bytes.Equal(img[8:], base[8:]) {
				return fmt.Sprintf("mid-commit tx %d line %#x: durable image %x, intended value %#x over baseline %x", mc.id, uint64(la), img, v, base)
			}
		}
	}

	// Invariant 4: the DRAM side is gone — recovery rebuilds a live
	// image containing nothing but recovered NVM data.
	for a, l := range m.Store().SnapshotLive() {
		if mem.KindOf(a) == mem.DRAM && l != (mem.Line{}) {
			return fmt.Sprintf("DRAM line %#x survived the crash", uint64(a))
		}
	}
	return ""
}
