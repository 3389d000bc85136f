package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"uhtm/internal/harness"
	"uhtm/internal/signature"
)

// tinyGrid enumerates a small (system × bench) grid at unit-test scale —
// the cheap stand-in for a figure plan.
func tinyGrid(seed int64) []harness.Spec[Result] {
	cfg := tinyConfig()
	cfg.Seed = seed
	var specs []harness.Spec[Result]
	for _, b := range []Bench{BenchHashMap, BenchBTree, BenchEcho} {
		for _, s := range []SystemSpec{LLCBounded(), UHTM(signature.Bits1K, true), Ideal()} {
			specs = append(specs, spec("tiny", s, b, cfg))
		}
	}
	return specs
}

// stripWall zeroes the only non-deterministic Result field (host wall
// time) so runs can be compared for simulation equality.
func stripWall(rs []Result) []Result {
	out := make([]Result, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestHarnessParallelismIsInvisible: executing the same grid serially
// and with 8 workers yields identical results — stats, simulated time
// and JSON records — because every engine is a self-contained world and
// the harness reassembles results in spec order.
func TestHarnessParallelismIsInvisible(t *testing.T) {
	serial := stripWall(harness.Execute(tinyGrid(7), 1))
	parallel := stripWall(harness.Execute(tinyGrid(7), 8))
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Stats != parallel[i].Stats || serial[i].Elapsed != parallel[i].Elapsed {
			t.Errorf("run %d (%s/%s) differs:\n serial   %v elapsed=%v\n parallel %v elapsed=%v",
				i, serial[i].System, serial[i].Bench,
				serial[i].Stats, serial[i].Elapsed, parallel[i].Stats, parallel[i].Elapsed)
		}
	}
	js, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Errorf("JSON differs between -par 1 and -par 8:\n%s\n%s", js, jp)
	}
}

// TestRunExperimentParDeterminism: a real registered experiment (fig2,
// reduced scale) produces a byte-identical table and identical JSON at
// -par 1 and -par 8.
func TestRunExperimentParDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale fig2 pair skipped in -short mode")
	}
	opt := RunOptions{Scale: 0.02, Seed: seedOpt(7)}
	opt.Par = 1
	tbl1, rs1, err := RunExperiment("fig2", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Par = 8
	tbl8, rs8, err := RunExperiment("fig2", opt)
	if err != nil {
		t.Fatal(err)
	}
	if tbl1.Format() != tbl8.Format() {
		t.Errorf("tables differ between -par 1 and -par 8:\n%s\n%s", tbl1.Format(), tbl8.Format())
	}
	j1, _ := json.Marshal(stripWall(rs1))
	j8, _ := json.Marshal(stripWall(rs8))
	if !bytes.Equal(j1, j8) {
		t.Errorf("JSON records differ between -par 1 and -par 8")
	}
	for _, r := range rs1 {
		if r.Experiment != "fig2" {
			t.Errorf("result experiment = %q, want fig2", r.Experiment)
		}
		if r.Seed != 7 {
			t.Errorf("seed override not threaded: result seed = %d, want 7", r.Seed)
		}
	}
}

// TestSeedChangesResults: the -seed override must actually reach the
// simulation — different seeds give different schedules.
func TestSeedChangesResults(t *testing.T) {
	cfg := tinyConfig()
	cfg.KeySpace = 64 // contended, schedule-sensitive
	a := Run(UHTM(signature.Bits512, true), BenchBTree, withSeed(cfg, 3))
	b := Run(UHTM(signature.Bits512, true), BenchBTree, withSeed(cfg, 4))
	if a.Seed != 3 || b.Seed != 4 {
		t.Fatalf("result seeds = %d/%d, want 3/4", a.Seed, b.Seed)
	}
	if a.Stats == b.Stats && a.Elapsed == b.Elapsed {
		t.Errorf("seeds 3 and 4 produced identical runs: %v", a.Stats)
	}
}

func withSeed(c Config, seed int64) Config {
	c.Seed = seed
	return c
}

// TestResultJSONRoundTrip: the emitted record decodes back to the same
// Result (modulo float rounding of wall time).
func TestResultJSONRoundTrip(t *testing.T) {
	r := Run(Ideal(), BenchHashMap, tinyConfig())
	r.Experiment = "roundtrip"
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	back.Wall = r.Wall // wall_ms round-trips at ms resolution only
	if !reflect.DeepEqual(back, r) {
		t.Errorf("round-trip mismatch:\n in  %+v\n out %+v", r, back)
	}
}
