package workload

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// -update regenerates the committed scheduler-equivalence goldens under
// testdata/ from the current engine. The files were captured from the
// goroutine-handoff scheduler that predates the flat run-queue, so a
// plain `go test` run asserts the refactored engine reproduces the old
// engine's output byte for byte.
var updateGoldens = flag.Bool("update", false, "rewrite testdata goldens from the current engine")

// goldenSnapshot is everything an experiment grid externalizes: the
// rendered stats table, the JSON Lines records (Wall zeroed — host time
// is the one non-deterministic field) and the rendered Chrome trace.
type goldenSnapshot struct {
	table, records, chrome []byte
}

// snapshotResults renders a result slice exactly the way the CLI does.
func snapshotResults(t *testing.T, tbl *stats.Table, rs []Result) goldenSnapshot {
	t.Helper()
	var recs bytes.Buffer
	var runs []trace.Run
	for _, r := range rs {
		r.Wall = 0
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		recs.Write(b)
		recs.WriteByte('\n')
		if len(r.TraceEvents) == 0 {
			t.Fatalf("run %s/%s carries no trace events", r.System, r.Bench)
		}
		runs = append(runs, trace.Run{Label: r.System + "/" + string(r.Bench), Events: r.TraceEvents})
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, runs, nil); err != nil {
		t.Fatal(err)
	}
	return goldenSnapshot{table: []byte(tbl.Format()), records: recs.Bytes(), chrome: chrome.Bytes()}
}

// checkGolden compares (or with -update, rewrites) one golden file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from pre-refactor golden (%d vs %d bytes); run with -update only if the simulated behaviour is meant to change", name, len(got), len(want))
	}
}

// TestSchedulerGoldenFig2 pins a reduced fig2 grid — every system and
// benchmark of the motivation figure — to the goldens captured from the
// pre-run-queue scheduler, at -par 1 and -par 8. A scheduler change
// that perturbs dispatch order (rather than only host-side cost) shows
// up here as a table, record or trace diff before it can reach a
// committed results file.
func TestSchedulerGoldenFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced fig2 grid skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("grid too slow under the race detector (see race_on_test.go)")
	}
	for _, par := range []int{1, 8} {
		opt := RunOptions{Scale: 0.02, Seed: seedOpt(7), Par: par, Trace: true}
		tbl, rs, err := RunExperiment("fig2", opt)
		if err != nil {
			t.Fatal(err)
		}
		snap := snapshotResults(t, tbl, rs)
		checkGolden(t, "golden_fig2.table", snap.table)
		checkGolden(t, "golden_fig2.jsonl", snap.records)
		checkGolden(t, "golden_fig2.trace", snap.chrome)
	}
}

// TestSchedulerGoldenFig7 pins the reduced fig7 row (100 KB footprint,
// every system — the same shrunken grid TestFig7GoldenParDeterminism
// uses) to pre-refactor goldens at -par 1 and -par 8.
func TestSchedulerGoldenFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced fig7 grid skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("grid too slow under the race detector (see race_on_test.go)")
	}
	cfg := pmdkConfig(100)
	cfg.Instances = 2
	cfg.ThreadsPerInstance = 2
	cfg.KeySpace = 512
	cfg.Prepopulate = 512
	cfg.BatchesPerThread = 2
	cfg.MemApps = 0
	cfg.Seed = 7
	cfg.Trace = true
	for _, par := range []int{1, 8} {
		var g grid
		for _, s := range Fig7Systems() {
			g.add("fig7", s, BenchMixed, cfg)
		}
		rs := harness.Execute(g.specs, par)
		tbl := &stats.Table{Header: []string{"footprintKB", "system", "abort-rate", "overflowedTx"}}
		for _, r := range rs {
			tbl.AddRow(fmt.Sprintf("%d", r.FootprintKB), r.System,
				pct(r.Stats.AbortRate()), fmt.Sprintf("%d", r.Stats.Overflows))
		}
		snap := snapshotResults(t, tbl, rs)
		checkGolden(t, "golden_fig7.table", snap.table)
		checkGolden(t, "golden_fig7.jsonl", snap.records)
		checkGolden(t, "golden_fig7.trace", snap.chrome)
	}
}

// TestDriverGoldens pins the fig8, fig9a and fig9b drivers — Echo with
// long read-only batches, Hybrid-Index and Dual — to goldens on shrunken
// grids at -par 1 and -par 8, the way TestSchedulerGoldenFig7 pins the
// consolidated PMDK mix. A driver refactor that moves a spawn, a seed,
// an allocation or a prepopulation step shows up here as a diff. The
// sigonly case pins Signature-Only detection, which no figure golden
// runs: every access of every transaction goes into its signatures, so
// a change to how signature hits are classified shows up there first.
func TestDriverGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced driver grids skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("grid too slow under the race detector (see race_on_test.go)")
	}
	// A 128 KB LLC makes the reduced footprints overflow, so the
	// bounded, signature and ideal systems part ways.
	geo := mem.DefaultConfig()
	geo.LLCSize = 128 << 10
	longRO := Config{
		Seed:               7,
		Instances:          1,
		ThreadsPerInstance: 4,
		ValueSize:          1024,
		FootprintKB:        1,
		BatchesPerThread:   8,
		KeySpace:           1024,
		Prepopulate:        1024,
		Persistent:         true,
		LongROEvery:        4,
		LongROBytes:        512 << 10,
		Geometry:           &geo,
		Trace:              true,
	}
	hybrid := DefaultConfig()
	hybrid.Seed = 7
	hybrid.Instances = 2
	hybrid.ThreadsPerInstance = 2
	hybrid.FootprintKB = 64
	hybrid.KeySpace = 512
	hybrid.Prepopulate = 256
	hybrid.BatchesPerThread = 2
	hybrid.MemApps = 0
	hybrid.Geometry = &geo
	hybrid.Trace = true
	dual := hybrid
	dual.Instances = 1
	dual.ThreadsPerInstance = 4 // two foreground, two background
	fig9 := []SystemSpec{LLCBounded(), UHTM(signature.Bits512, false), UHTM(signature.Bits4K, true), Ideal()}
	cases := []struct {
		name    string
		bench   Bench
		cfg     Config
		systems []SystemSpec
	}{
		{"fig8", BenchEcho, longRO, []SystemSpec{LLCBounded(), UHTM(signature.Bits4K, true), Ideal()}},
		{"fig9a", BenchHybridIndex, hybrid, fig9},
		{"fig9b", BenchDual, dual, fig9},
		{"sigonly", BenchMixed, hybrid, []SystemSpec{SignatureOnly(signature.Bits512), SignatureOnly(signature.Bits4K)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 8} {
				var g grid
				for _, s := range tc.systems {
					g.add(tc.name, s, tc.bench, tc.cfg)
				}
				rs := harness.Execute(g.specs, par)
				tbl := &stats.Table{Header: []string{"system", "commits", "tx/s", "abort-rate", "overflowedTx"}}
				for _, r := range rs {
					tbl.AddRow(r.System, fmt.Sprintf("%d", r.Stats.Commits), f2(r.Throughput()),
						pct(r.Stats.AbortRate()), fmt.Sprintf("%d", r.Stats.Overflows))
				}
				snap := snapshotResults(t, tbl, rs)
				checkGolden(t, "golden_"+tc.name+".table", snap.table)
				checkGolden(t, "golden_"+tc.name+".jsonl", snap.records)
				checkGolden(t, "golden_"+tc.name+".trace", snap.chrome)
			}
		})
	}
}
