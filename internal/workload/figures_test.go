package workload

import (
	"runtime"
	"strconv"
	"testing"

	"uhtm/internal/stats"
)

// findResult returns the result of the named grid cell, failing the
// test when the cell is missing.
func findResult(t *testing.T, rs []Result, system string, bench Bench) Result {
	t.Helper()
	for _, r := range rs {
		if r.System == system && r.Bench == bench {
			return r
		}
	}
	t.Fatalf("no result for system %q bench %q in %d-cell grid", system, bench, len(rs))
	return Result{}
}

// wantPositive fails the test unless the cell's throughput is positive.
func wantPositive(t *testing.T, r Result) {
	t.Helper()
	if r.Throughput() <= 0 {
		t.Fatalf("%s %s throughput is %v, want > 0", r.System, r.Bench, r.Throughput())
	}
}

// figureAllocSlack and figureAllocTolerance bound a figure's heap
// allocations against its budget: fail above budget*(1+tolerance)+slack.
const (
	figureAllocTolerance = 0.25
	figureAllocSlack     = 64
)

// TestFigureAllocBudgets runs every paper experiment once at a reduced
// scale. Each run must produce the cells its figure is read from, and
// its process-wide heap allocation count must stay within its budget.
// Allocations are dominated by machine set-up (caches, tracking tables,
// store pages), so the count barely moves with scale; the budgets were
// measured at scales 0.125 and 0.25. The test must not run in parallel
// with others, because runtime.MemStats counts the whole process.
func TestFigureAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("paper experiments skipped in -short mode")
	}
	cases := []struct {
		name   string
		budget uint64
		check  func(t *testing.T, tbl *stats.Table, rs []Result)
	}{
		{"fig2", 679522, func(t *testing.T, _ *stats.Table, rs []Result) {
			wantPositive(t, findResult(t, rs, "LLC-Bounded", BenchSkipList))
			findResult(t, rs, "Ideal", BenchSkipList)
		}},
		{"fig6", 3052665, func(t *testing.T, _ *stats.Table, rs []Result) {
			wantPositive(t, findResult(t, rs, "LLC-Bounded", BenchSkipList))
			findResult(t, rs, "4k_opt", BenchSkipList)
		}},
		{"fig7", 2062748, func(t *testing.T, _ *stats.Table, rs []Result) {
			for _, r := range rs {
				if r.System == "4k_opt" {
					return
				}
			}
			t.Fatalf("no 4k_opt result in %d-cell grid", len(rs))
		}},
		{"fig8", 1513591, func(t *testing.T, _ *stats.Table, rs []Result) {
			if len(rs) < 2 {
				t.Fatalf("grid has %d results, want >= 2", len(rs))
			}
			wantPositive(t, rs[0])
		}},
		{"fig9a", 2289371, func(t *testing.T, _ *stats.Table, rs []Result) {
			for _, r := range rs {
				if r.System == "512_sig" {
					wantPositive(t, r)
					return
				}
			}
			t.Fatalf("no 512_sig result in %d-cell grid", len(rs))
		}},
		{"fig9b", 2222529, func(t *testing.T, _ *stats.Table, rs []Result) {
			if len(rs) == 0 {
				t.Fatal("no results")
			}
		}},
		{"fig10", 1642368, func(t *testing.T, tbl *stats.Table, _ []Result) {
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			last := tbl.Rows[len(tbl.Rows)-1]
			if len(last) < 4 {
				t.Fatalf("row has %d columns, want >= 4", len(last))
			}
			if _, err := strconv.ParseFloat(last[3], 64); err != nil {
				t.Fatalf("undo/redo cell %q is not a number: %v", last[3], err)
			}
		}},
		{"ablate", 426722, func(t *testing.T, tbl *stats.Table, rs []Result) {
			if len(rs) != 8 || len(tbl.Rows) != 8 {
				t.Fatalf("ablations produced %d runs and %d rows, want 8 and 8", len(rs), len(tbl.Rows))
			}
			for _, r := range rs {
				if r.Stats.Commits == 0 {
					t.Errorf("%s: no commits", r.System)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The ablation grid is small enough to run under the race
			// detector, which also allocates, so there only its cells are
			// checked.
			if raceEnabled && tc.name != "ablate" {
				t.Skip("grid too slow under the race detector (see race_on_test.go)")
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tbl, rs, err := RunExperiment(tc.name, RunOptions{Scale: 0.02, Par: runtime.GOMAXPROCS(0)})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			mallocs := after.Mallocs - before.Mallocs
			limit := float64(tc.budget)*(1+figureAllocTolerance) + figureAllocSlack
			t.Logf("%d mallocs, budget %d, limit %.0f", mallocs, tc.budget, limit)
			if float64(mallocs) > limit && !raceEnabled {
				t.Errorf("%d mallocs exceed budget %d by more than %.0f%% (+%d)",
					mallocs, tc.budget, 100*figureAllocTolerance, figureAllocSlack)
			}
			tc.check(t, tbl, rs)
		})
	}
}
