package workload

import (
	"testing"

	"uhtm/internal/signature"
)

// TestSeedSweepParanoid runs the consolidated mix under several seeds
// with ground-truth conflict validation on: any schedule-dependent
// missed conflict or rollback bug panics the run. This is the
// randomized-schedule stress companion to the fixed-seed unit tests.
func TestSeedSweepParanoid(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	cfg := tinyConfig()
	cfg.Instances = 2
	cfg.ThreadsPerInstance = 3
	cfg.KeySpace = 64 // contended
	cfg.BatchesPerThread = 4
	for _, seed := range []int64{1, 7, 1234, 98765} {
		c := cfg
		c.Seed = seed
		for _, spec := range []SystemSpec{
			paranoid(LLCBounded()),
			paranoid(UHTM(signature.Bits512, true)),
			paranoid(SignatureOnly(signature.Bits1K)),
			paranoid(Ideal()),
		} {
			r := Run(spec, BenchMixed, c)
			want := uint64(c.Instances * c.ThreadsPerInstance * c.BatchesPerThread)
			if r.Stats.Commits != want {
				t.Errorf("seed=%d %s: commits=%d want %d", seed, spec.Name, r.Stats.Commits, want)
			}
		}
	}
}
