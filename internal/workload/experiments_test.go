package workload

import (
	"math"
	"testing"
)

// TestRatio pins the shared throughput-ratio guard every fold uses: a
// zero (or degenerate negative/NaN-producing) baseline must fold to 0,
// never to Inf/NaN in a rendered table.
func TestRatio(t *testing.T) {
	cases := []struct {
		num, den, want float64
	}{
		{10, 5, 2},
		{0, 5, 0},
		{10, 0, 0},  // zero-throughput baseline: no division by zero
		{0, 0, 0},   // both sides dead
		{10, -1, 0}, // defensive: never negative baselines
	}
	for _, c := range cases {
		got := ratio(c.num, c.den)
		if got != c.want {
			t.Errorf("ratio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("ratio(%v, %v) = %v, not finite", c.num, c.den, got)
		}
	}
}

// seedOpt is an explicit RunOptions.Seed.
func seedOpt(v int64) *int64 { return &v }

// TestFoldZeroThroughput runs the fig2 fold over all-zero results —
// the shape a run produces when no batch commits — and checks the
// table renders finite ratios.
func TestFoldZeroThroughput(t *testing.T) {
	specs, fold := fig2Plan(RunOptions{Scale: 0.05, Seed: seedOpt(1)})
	rs := make([]Result, len(specs))
	for i := range rs {
		rs[i] = Result{Experiment: "fig2", System: specs[i].System}
	}
	tbl := fold(rs)
	for _, row := range tbl.Rows {
		for _, cell := range row {
			if cell == "+Inf" || cell == "-Inf" || cell == "NaN" {
				t.Fatalf("fold produced non-finite cell %q in row %v", cell, row)
			}
		}
	}
}
