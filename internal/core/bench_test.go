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
// machine: Touch, the signature probe of a live transaction in the
// polluter's domain, Insert and the final eviction drain together. A
// second live transaction in another domain is out of the isolated
// probe scope. The LLC is filled before timing starts.
func BenchmarkPolluteLLC(b *testing.B) {
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.Paranoid = false
	m := NewMachine(eng, mem.DefaultConfig(), opts)
	al := mem.NewAllocator(mem.DRAM)
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
				th.WaitUntil(func() bool { return done || tx.status.abortFlag }, sim.Microsecond)
				tx.checkAbortFlag()
			})
		})
	}
	const window = 32 << 20
	base := mem.DRAMLogBase - window
	eng.Spawn("polluter", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		rng := rand.New(rand.NewSource(1))
		th.Advance(sim.Microsecond) // let both transactions begin
		for i := 0; i < 2*m.cfg.LLCSize/mem.LineSize/4096; i++ {
			c.PolluteLLC(base, window, 4096, 1500*sim.Picosecond, rng)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.PolluteLLC(base, window, 4096, 1500*sim.Picosecond, rng)
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
