package workload

import (
	"reflect"
	"testing"

	"uhtm/internal/harness"
	"uhtm/internal/signature"
)

// TestSharedHeapsMatchLoneRuns: every prepopulating driver returns the
// same Result whether its run borrows a heap together with the other
// runs of its key or is the heap's only borrower (Run), at -par 1 and
// -par 8. Each key is built once, and once every planned run has
// borrowed, no heap holds its image any more. Under the race detector
// the -par 8 pass also checks that concurrent borrowers share nothing
// they write.
func TestSharedHeapsMatchLoneRuns(t *testing.T) {
	cfg := tinyConfig()
	longRO := cfg
	longRO.Instances = 1
	longRO.ThreadsPerInstance = 4
	longRO.ValueSize = 1024
	longRO.FootprintKB = 1
	longRO.KeySpace = 512
	longRO.Prepopulate = 256
	longRO.LongROEvery = 2
	longRO.LongROBytes = 64 << 10
	cases := []struct {
		b   Bench
		cfg Config
	}{
		{BenchMixed, cfg},
		{BenchHashMap, cfg},
		{BenchEcho, cfg},
		{BenchEcho, longRO},
		{BenchHybridIndex, cfg},
		{BenchDual, cfg},
	}
	systems := []SystemSpec{LLCBounded(), UHTM(signature.Bits1K, true), Ideal()}

	var lone []Result
	for _, c := range cases {
		for _, s := range systems {
			r := Run(s, c.b, c.cfg)
			r.Experiment = "shared"
			lone = append(lone, r)
		}
	}
	lone = stripWall(lone)
	for _, par := range []int{1, 8} {
		var g grid
		for _, c := range cases {
			for _, s := range systems {
				g.add("shared", s, c.b, c.cfg)
			}
		}
		got := stripWall(harness.Execute(g.specs, par))
		for i := range got {
			if !reflect.DeepEqual(got[i], lone[i]) {
				t.Errorf("-par %d: %s/%s on a shared heap differs from its lone run:\n shared %+v\n lone   %+v",
					par, got[i].System, got[i].Bench, got[i].Stats, lone[i].Stats)
			}
		}
		if len(g.heaps) != len(cases) {
			t.Fatalf("-par %d: %d heaps planned, want one per key (%d)", par, len(g.heaps), len(cases))
		}
		for k, h := range g.heaps {
			if h.builds != 1 {
				t.Errorf("-par %d: heap %s built %d times, want once", par, k.b, h.builds)
			}
			if h.left != 0 || h.img != nil || h.arenas != nil || h.attach != nil {
				t.Errorf("-par %d: heap %s still holds its setup after every run borrowed it", par, k.b)
			}
		}
	}
}
