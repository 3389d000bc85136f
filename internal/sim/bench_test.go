package sim

import "testing"

// BenchmarkSimEngineYield measures the scheduler handoff cost, the
// simulator's fundamental overhead per memory access.
func BenchmarkSimEngineYield(b *testing.B) {
	eng := NewEngine(1)
	eng.Spawn("spin", func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Sync()
			th.Advance(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// TestSyncFastPathAllocatesNothing: a lone thread's Sync and Advance,
// paid on every simulated memory access, allocate nothing.
// TestSyncFastPathElision pins that they do not dispatch either.
func TestSyncFastPathAllocatesNothing(t *testing.T) {
	eng := NewEngine(1)
	var allocs float64
	eng.Spawn("spin", func(th *Thread) {
		allocs = testing.AllocsPerRun(1000, func() {
			th.Sync()
			th.Advance(Nanosecond)
		})
	})
	eng.Run()
	if allocs != 0 {
		t.Errorf("Sync+Advance allocates %v times per step, want 0", allocs)
	}
}
