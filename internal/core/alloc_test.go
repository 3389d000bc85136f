package core

import (
	"runtime"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/txds"
	"uhtm/internal/wal"
)

// measureTxAllocs runs warmup transactions until the pooled structures
// (Tx tracking pages, scratch buffers, WAL rings, store pages, engine
// event queues) reach steady state, then counts heap allocations over
// the measured transactions. It reports allocations per transaction.
func measureTxAllocs(t *testing.T, warmup, measured int, body func(tx *Tx, i int)) float64 {
	t.Helper()
	opts := DefaultOptions()
	opts.Paranoid = false     // paranoid ground-truth checks are test-only scaffolding
	opts.TrackCommits = false // commit-image retention is an oracle feature, allocates by design
	eng := sim.NewEngine(1)
	cfg := testConfig()
	cfg.Cores = 1
	m := NewMachine(eng, cfg, opts)
	// The production rings span the whole 64 MiB log area; their heads
	// advance monotonically and materialize a fresh store page every few
	// hundred transactions until they wrap — amortized zero, but a full
	// wrap is ~200k transactions. Shrink the rings so the warmup phase
	// wraps them completely and the measured window sees true steady
	// state.
	const ringBytes = 256 << 10
	m.undoRings = wal.NewRings(m.store, mem.DRAMLogBase, ringBytes, cfg.Cores, false)
	// The redo override must sit past the checkpoint cell AND the
	// checkpoint ring, exactly like the production layout.
	redoBase := mem.NVMLogBase + mem.LineSize + ckptRingBytes(cfg.Cores)
	m.redoRings = wal.NewRings(m.store, redoBase, ringBytes-mem.LineSize, cfg.Cores, true)
	var perTx float64
	eng.Spawn("alloc", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		i := 0
		run := func(tx *Tx) { body(tx, i) }
		for i = 0; i < warmup; i++ {
			c.Run(run)
		}
		// Starting an OS thread costs the runtime about six heap
		// allocations (m, g0, gsignal, profiling stacks), more than
		// strayAllocBudget. The runtime starts one whenever it wakes a P
		// and finds no idle thread; on a loaded host even the
		// stop-the-world restart inside ReadMemStats can do it. Threads
		// are never freed, so the pool settles: a window in which the
		// runtime started a thread is measured again, up to
		// threadRetries times, and the first window without one is
		// reported. ThreadCreateProfile(nil) only counts threads and
		// does not allocate.
		const threadRetries = 8
		for attempt := 0; ; attempt++ {
			var before, after runtime.MemStats
			runtime.GC()
			threadsBefore, _ := runtime.ThreadCreateProfile(nil)
			runtime.ReadMemStats(&before)
			start := i
			for ; i < start+measured; i++ {
				c.Run(run)
			}
			threadsAfter, _ := runtime.ThreadCreateProfile(nil)
			runtime.ReadMemStats(&after)
			perTx = float64(after.Mallocs-before.Mallocs) / float64(measured)
			if threadsAfter == threadsBefore || attempt == threadRetries {
				break
			}
		}
	})
	eng.Run()
	// A lone thread hands the engine token over once, to start; every
	// later Sync takes the fast path.
	if d := eng.Dispatches(); d != 1 {
		t.Errorf("engine dispatched %d times, want 1", d)
	}
	return perTx
}

// strayAllocBudget tolerates a handful of allocations in the whole
// measured window that are not per-transaction costs (runtime
// background activity such as timer and scavenger bookkeeping shows up
// in Mallocs). Anything that allocates once per transaction — or even
// once per hundred transactions — still fails loudly.
const strayAllocBudget = 4.0 / 2048

// TestCommitPathZeroAllocs extends the "zero overhead when tracing is
// disabled" guard (internal/trace's TestEmitDisabledAllocatesNothing)
// to the whole commit path: with tracing off, a steady-state durable
// transaction — begin, DRAM + NVM writes and reads, commit protocol,
// redo-log append, pending-persist registration and log reclamation —
// must not allocate at all. The pooled flat structures (generation-
// tagged tracking pages, scratch sort buffers, recycled index lists)
// exist precisely to make this hold; a regression here reintroduces
// GC pressure on the simulator's hottest loop.
func TestCommitPathZeroAllocs(t *testing.T) {
	d := mem.NewAllocator(mem.DRAM)
	n := mem.NewAllocator(mem.NVM)
	da, na := d.AllocLines(4), n.AllocLines(4)
	perTx := measureTxAllocs(t, 2500, 2048, func(tx *Tx, i int) {
		for l := 0; l < 4; l++ {
			off := mem.Addr(l) * mem.LineSize
			tx.WriteU64(da+off, uint64(i))
			tx.WriteU64(na+off, uint64(i))
			tx.ReadU64(da + off)
		}
	})
	if perTx > strayAllocBudget {
		t.Errorf("commit path allocates %.4f times per transaction, want 0", perTx)
	}
}

// TestRollbackPathZeroAllocs pins the abort/rollback path: an explicit
// abort on the first attempt exercises undo restore, WAL abort records,
// sticky clearing and the retry machinery. The pre-allocated panic
// value (Tx.abortScratch) keeps the unwind itself allocation-free, so
// the whole cycle — one abort plus one commit — must not allocate in
// steady state.
func TestRollbackPathZeroAllocs(t *testing.T) {
	d := mem.NewAllocator(mem.DRAM)
	n := mem.NewAllocator(mem.NVM)
	da, na := d.AllocLines(2), n.AllocLines(2)
	perTx := measureTxAllocs(t, 2500, 2048, func(tx *Tx, i int) {
		tx.WriteU64(da, uint64(i))
		tx.WriteU64(na, uint64(i))
		if tx.Attempt() == 0 {
			tx.Abort()
		}
	})
	if perTx > strayAllocBudget {
		t.Errorf("rollback+retry cycle allocates %.4f times per transaction, want 0", perTx)
	}
}

// TestOverflowPathZeroAllocs pins the overflow path: transactions that
// read 1,600 NVM lines (more than the 1,024-line LLC of the test
// machine) and write 4 or all 1,600 of them overflow on every attempt,
// which runs overflowRead and overflowWrite, the signature inserts and
// their tracking flags, and the DRAM-cache insert of early-evicted NVM
// lines. In steady state none of it may allocate. The windows are
// short (an overflowing transaction makes thousands of accesses), so
// the stray-allocation budget is the same handful per window.
func TestOverflowPathZeroAllocs(t *testing.T) {
	const lines, measured = 1600, 64
	na := mem.NewAllocator(mem.NVM).AllocLines(lines)
	for _, writes := range []int{4, lines} {
		var overflowed bool
		perTx := measureTxAllocs(t, 150, measured, func(tx *Tx, i int) {
			for l := 0; l < lines; l++ {
				tx.ReadU64(na + mem.Addr(l)*mem.LineSize)
			}
			for l := 0; l < writes; l++ {
				tx.WriteU64(na+mem.Addr(l)*mem.LineSize, uint64(i))
			}
			overflowed = tx.Overflowed()
		})
		if !overflowed {
			t.Fatalf("%d-write transaction did not overflow", writes)
		}
		if perTx > strayAllocBudget*2048/measured {
			t.Errorf("%d-write overflow path allocates %.4f times per transaction, want 0", writes, perTx)
		}
	}
}

// TestNTAccessorZeroAllocs pins the non-transactional accessor: Ctx.NT
// hands out the context's own Accessor, so fetching it and making one
// word read through a txds.Mem must not allocate.
func TestNTAccessorZeroAllocs(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	a := mem.NewAllocator(mem.DRAM).AllocLines(1)
	var allocs float64
	var sink uint64
	eng.Spawn("nt", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.NT().ReadU64(a) // warm the line and the store page
		allocs = testing.AllocsPerRun(100, func() { sink += readWord(c.NT(), a) })
	})
	eng.Run()
	if allocs != 0 {
		t.Errorf("NT() plus one ReadU64 allocates %.0f times, want 0", allocs)
	}
}

// readWord reads through a txds.Mem the way the data structures do: out
// of line, so the compiler cannot see the accessor's concrete type.
//
//go:noinline
func readWord(m txds.Mem, a mem.Addr) uint64 { return m.ReadU64(a) }
