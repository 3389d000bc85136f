package kv

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/shard"
)

// BenchmarkRebuildIndex times the DRAM index rebuild of one partition of
// the served store as perfbench's kv-write-2pc workload shapes it: the
// 16,384 keys of shard 0 of 4 with 64-byte values, in a 32,768-bucket
// table. Each iteration first crashes and recovers the machine,
// untimed, so every rebuild starts from a recovered image.
func BenchmarkRebuildIndex(b *testing.B) {
	_, m := newMachine()
	st := m.Store()
	p := NewHybridPart(st, mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM), 1<<15)
	val := make([]byte, 64)
	for k, n := uint64(1), 0; n < 1<<14; k++ {
		if shard.ShardOf(k, 4) != 0 {
			continue
		}
		for i := range val {
			val[i] = byte(k + uint64(i))
		}
		p.Put(st, k, val)
		n++
	}
	st.PersistLiveNVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Crash()
		m.Recover()
		b.StartTimer()
		p.RebuildIndex(st, mem.NewAllocator(mem.DRAM))
	}
	b.StopTimer()
	if got := p.Index.Scan(st, 0, func(uint64, mem.Addr) bool { return true }); got != 1<<14 {
		b.Fatalf("rebuilt index holds %d keys, want %d", got, 1<<14)
	}
}
