package core

import (
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
