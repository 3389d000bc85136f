package shard

import "testing"

// untracedSweepConfig is the cluster BenchmarkShardCross times and
// shardCrossAllocCeiling bounds: the sweep shape with tracing off.
func untracedSweepConfig() Config {
	cfg := SweepConfig()
	cfg.Trace = false
	return cfg
}

// shardCrossAllocCeiling bounds the heap allocations of building and
// running one untracedSweepConfig cluster: 811 per run at the recorded
// baseline (831 under testing.AllocsPerRun), plus 25% and 64 for
// runtime and toolchain drift.
const shardCrossAllocCeiling = 1077

// BenchmarkShardCross measures a small sharded cluster end to end:
// per-shard local batches plus cross-shard 2PC waves (prepare, decide,
// apply, reclaim, resolve).
func BenchmarkShardCross(b *testing.B) {
	cfg := untracedSweepConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := New(cfg).Run(); res.Halted {
			b.Fatal("uninjected cluster run halted")
		}
	}
}
