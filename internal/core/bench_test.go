package core

import (
	"fmt"
	"math/rand"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// BenchmarkTxSmallCommit measures a minimal durable transaction (one
// NVM line) end to end through the machine.
func BenchmarkTxSmallCommit(b *testing.B) {
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.Paranoid = false
	mc := mem.DefaultConfig()
	mc.Cores = 1
	m := NewMachine(eng, mc, opts)
	a := mem.NewAllocator(mem.NVM).AllocLines(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for i := 0; i < b.N; i++ {
			c.Run(func(tx *Tx) {
				tx.WriteU64(a, uint64(i))
			})
		}
	})
	eng.Run()
}

// BenchmarkRecoveryReplay measures machine crash recovery end to end
// over a part-checkpointed redo log (see recoveryReplayMachine). Replay
// does not consume the ring, so every iteration does the same work.
func BenchmarkRecoveryReplay(b *testing.B) {
	m, _ := recoveryReplayMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Crash()
		m.Recover()
	}
}

// BenchmarkReclaimLogs measures one ReclaimLogs pass on a default
// four-core machine whose core-0 redo ring holds 45 % of its slots in
// committed four-line transactions: just under the half-full mark at
// which commits start reclaiming on their own, the shape of perfbench's
// core.reclaim_us probe. Each iteration refills the ring untimed (tens
// of milliseconds), so give it a fixed count: -benchtime 20x.
func BenchmarkReclaimLogs(b *testing.B) {
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.Paranoid = false
	mc := mem.DefaultConfig()
	mc.Cores = 4
	m := NewMachine(eng, mc, opts)
	const footprintLines = 100 << 10 / mem.LineSize
	pool := mem.NewAllocator(mem.NVM).AllocLines(footprintLines)
	ring := m.RedoLog(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng.Spawn("fill", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for k := 0; ring.Len()+8 < ring.Slots()*45/100; k++ {
				c.Run(func(tx *Tx) {
					for w := 0; w < 4; w++ {
						tx.WriteU64(pool+mem.Addr((k*4+w)%footprintLines)*mem.LineSize, uint64(k))
					}
				})
			}
		})
		eng.Run()
		eng.Recycle()
		b.StartTimer()
		m.ReclaimLogs()
	}
	b.StopTimer()
	if ring.Len() != 0 {
		b.Fatalf("quiescent pass left %d records on ring 0", ring.Len())
	}
}

// BenchmarkPolluteLLC measures one 4096-line LLC pollution batch (the
// memory-intensive co-runner of Figures 6 and 10) on a default-geometry
// machine kept in the state a grid cell runs in: Touch, the signature
// probe of a live transaction in the polluter's domain, InsertStream
// and the eviction drain together. A second live transaction in another
// domain is out of the isolated probe scope. Batches alternate between
// two windows, as two memory apps' would, and fill the LLC before
// timing starts. Reader transactions on the other cores then fill their
// L1s with tracked lines, which sit in the LLC beside the stream lines
// and in the directory. Every 16 batches, untimed, the readers commit
// and read their lines again, so the drain keeps meeting populated L1s,
// presence filter and directory.
func BenchmarkPolluteLLC(b *testing.B) {
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.Paranoid = false
	m := NewMachine(eng, mem.DefaultConfig(), opts)
	al := mem.NewAllocator(mem.DRAM)
	const poll = 100 * sim.Microsecond
	done := false
	for domain := 0; domain < 2; domain++ {
		d, data := domain, al.AllocLines(8)
		eng.Spawn(fmt.Sprintf("tx%d", d), func(th *sim.Thread) {
			c := m.NewCtx(th, d)
			// An abort (a signature false positive) retries, so the
			// transaction stays live until the benchmark ends.
			c.Run(func(tx *Tx) {
				for i := 0; i < 8; i++ {
					tx.WriteU64(data+mem.Addr(i)*mem.LineSize, 1)
				}
				th.WaitUntil(func() bool { return done || tx.status.abortFlag }, poll)
				tx.checkAbortFlag()
			})
		})
	}
	// round counts the polluter's refresh requests; ready[i] is the
	// round whose lines reader i last finished reading.
	round, ready := 0, make([]int, m.cfg.Cores-3)
	l1Lines := m.cfg.L1Size / mem.LineSize
	for i := range ready {
		// Each round reads the other set of lines: lines still in the L1
		// would hit there and age in the LLC.
		sets := [2]mem.Addr{al.AllocLines(l1Lines), al.AllocLines(l1Lines)}
		eng.Spawn(fmt.Sprintf("reader%d", i), func(th *sim.Thread) {
			c := m.NewCtx(th, 2)
			th.WaitUntil(func() bool { return round > 0 }, poll)
			for !done {
				c.Run(func(tx *Tx) {
					r := round
					for l := 0; l < l1Lines; l++ {
						tx.ReadU64(sets[r%2] + mem.Addr(l)*mem.LineSize)
					}
					ready[i] = r
					th.WaitUntil(func() bool { return done || round != r || tx.status.abortFlag }, poll)
					tx.checkAbortFlag()
				})
			}
		})
	}
	const window = 32 << 20
	bases := [2]mem.Addr{mem.DRAMLogBase - window, mem.DRAMLogBase - 2*window}
	eng.Spawn("polluter", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		rngs := [2]*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
		batch := func(i int) { c.PolluteLLC(bases[i%2], window, 4096, 1500*sim.Picosecond, rngs[i%2]) }
		refresh := func() {
			round++
			th.WaitUntil(func() bool {
				for _, r := range ready {
					if r != round {
						return false
					}
				}
				return true
			}, sim.Microsecond)
		}
		th.Advance(sim.Microsecond) // let both transactions begin
		for i := 0; i < 2*m.cfg.LLCSize/mem.LineSize/4096; i++ {
			batch(i)
		}
		refresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%16 == 0 {
				b.StopTimer()
				refresh()
				b.StartTimer()
			}
			batch(i)
		}
		b.StopTimer()
		done = true
	})
	eng.Run()
	// Checked here, not in the polluter: FailNow on a sim thread would
	// leave the transactions waiting forever.
	if in, out := m.DomainStats(0).SigChecks, m.DomainStats(1).SigChecks; in == 0 || out != 0 {
		b.Fatalf("probe scope: %d checks in the polluter's domain, %d outside it", in, out)
	}
}
