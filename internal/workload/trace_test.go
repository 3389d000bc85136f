package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// tracedConfig is a contended tiny config: small keyspace so aborts
// (and their trace arrows) actually occur.
func tracedConfig(seed int64) Config {
	c := tinyConfig()
	c.Seed = seed
	c.KeySpace = 64
	c.Trace = true
	return c
}

// TestTraceRecordsLifecycle: a traced run produces a structurally sound
// event stream — begins/commits/aborts match the run's stats, every
// transaction's span is well-formed, and an untraced run carries no
// events. (The raw stream is NOT globally time-sorted: threads run
// optimistically ahead of the global clock between sync points.)
func TestTraceRecordsLifecycle(t *testing.T) {
	r := Run(UHTM(signature.Bits512, true), BenchBTree, tracedConfig(3))
	if len(r.TraceEvents) == 0 {
		t.Fatal("traced run recorded no events")
	}
	var begins, commits, aborts uint64
	for _, e := range r.TraceEvents {
		if e.TS < 0 {
			t.Fatalf("negative timestamp on %v", e.Kind)
		}
		switch e.Kind {
		case trace.EvTxBegin:
			begins++
		case trace.EvTxCommitDone:
			commits++
		case trace.EvTxAbort:
			aborts++
		}
	}
	for _, s := range trace.Summarize(r.TraceEvents) {
		if s.End < s.Start {
			t.Errorf("tx%d span [%d,%d] is inverted", s.ID, s.Start, s.End)
		}
		if !s.Committed && s.CauseCode == 0 && s.EnemyCore < 0 && s.Enemy == 0 {
			t.Errorf("tx%d finished the run in flight", s.ID)
		}
	}
	if commits != r.Stats.Commits {
		t.Errorf("trace has %d commit-done events, stats say %d commits", commits, r.Stats.Commits)
	}
	if aborts != r.Stats.Aborts() {
		t.Errorf("trace has %d abort events, stats say %d aborts", aborts, r.Stats.Aborts())
	}
	if begins != commits+aborts {
		t.Errorf("begins (%d) != commits (%d) + aborts (%d)", begins, commits, aborts)
	}

	cfg := tracedConfig(3)
	cfg.Trace = false
	plain := Run(UHTM(signature.Bits512, true), BenchBTree, cfg)
	if plain.TraceEvents != nil {
		t.Errorf("untraced run carries %d events", len(plain.TraceEvents))
	}
}

// TestTracingIsObservationOnly: attaching a recorder must not perturb
// the simulation — stats and simulated time are identical with tracing
// on and off.
func TestTracingIsObservationOnly(t *testing.T) {
	on := Run(UHTM(signature.Bits512, true), BenchBTree, tracedConfig(5))
	cfg := tracedConfig(5)
	cfg.Trace = false
	off := Run(UHTM(signature.Bits512, true), BenchBTree, cfg)
	if on.Stats != off.Stats {
		t.Errorf("tracing changed stats:\n on  %v\n off %v", on.Stats, off.Stats)
	}
	if on.Elapsed != off.Elapsed {
		t.Errorf("tracing changed simulated time: %v vs %v", on.Elapsed, off.Elapsed)
	}
}

// TestTraceParDeterminism: the rendered Chrome trace of a real
// experiment grid is byte-identical at -par 1 and -par 8 — the
// acceptance bar for trusting traces from parallel harness runs.
func TestTraceParDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale fig2 pair skipped in -short mode")
	}
	render := func(par int) []byte {
		opt := RunOptions{Scale: 0.02, Seed: seedOpt(7), Par: par, Trace: true}
		_, rs, err := RunExperiment("fig2", opt)
		if err != nil {
			t.Fatal(err)
		}
		var runs []trace.Run
		for _, r := range rs {
			if len(r.TraceEvents) == 0 {
				t.Fatalf("run %s/%s carries no trace events", r.System, r.Bench)
			}
			runs = append(runs, trace.Run{Label: r.System + "/" + string(r.Bench), Events: r.TraceEvents})
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, runs, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(1), render(8)) {
		t.Error("Chrome traces differ between -par 1 and -par 8")
	}
}

// TestFig7GoldenParDeterminism is the golden-output guard for the
// performance work on the simulator core: a reduced fig7 grid (the
// 100 KB footprint row, every system) must produce byte-identical
// stats tables, JSON records and rendered Chrome traces at -par 1 and
// -par 8. Any hot-path change that perturbs simulated behaviour —
// rather than only host-side cost — trips this before it can reach a
// committed results file. wall_ms is the single non-deterministic
// field, so records are compared with Wall zeroed.
func TestFig7GoldenParDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced fig7 grid skipped in -short mode")
	}
	type snapshot struct {
		table, records, chrome []byte
	}
	// One fig7 row — the 100 KB footprint against every fig7 system —
	// shrunk to test size: fewer threads, a smaller tree and no
	// memory-intensive apps, but the same benchmark, value sizes and
	// abort decomposition as the real grid.
	cfg := pmdkConfig(100)
	cfg.Instances = 2
	cfg.ThreadsPerInstance = 2
	cfg.KeySpace = 512
	cfg.Prepopulate = 512
	cfg.BatchesPerThread = 2
	cfg.MemApps = 0
	cfg.Seed = 7
	cfg.Trace = true
	take := func(par int) snapshot {
		var g grid
		for _, s := range Fig7Systems() {
			g.add("fig7", s, BenchMixed, cfg)
		}
		rs := harness.Execute(g.specs, par)

		tbl := &stats.Table{Header: []string{"footprintKB", "system", "abort-rate", "overflowedTx"}}
		var recs bytes.Buffer
		var runs []trace.Run
		for _, r := range rs {
			tbl.AddRow(fmt.Sprintf("%d", r.FootprintKB), r.System,
				pct(r.Stats.AbortRate()), fmt.Sprintf("%d", r.Stats.Overflows))
			r.Wall = 0 // host time: the only non-deterministic field
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
		return snapshot{table: []byte(tbl.Format()), records: recs.Bytes(), chrome: chrome.Bytes()}
	}
	s1, s8 := take(1), take(8)
	if !bytes.Equal(s1.table, s8.table) {
		t.Errorf("stats tables differ between -par 1 and -par 8:\npar1:\n%s\npar8:\n%s", s1.table, s8.table)
	}
	if !bytes.Equal(s1.records, s8.records) {
		t.Error("JSON records differ between -par 1 and -par 8")
	}
	if !bytes.Equal(s1.chrome, s8.chrome) {
		t.Error("Chrome traces differ between -par 1 and -par 8")
	}
}

// TestTraceMetricsPopulated: the derived metrics fed by the trace layer
// (signature occupancy, abort chains, slow-path wait) reach the stats
// on a contended overflowing workload.
func TestTraceMetricsPopulated(t *testing.T) {
	c := tinyConfig()
	c.Seed = 11
	c.KeySpace = 64
	c.FootprintKB = 64 // force LLC overflow at test geometry
	r := Run(UHTM(signature.Bits512, true), BenchBTree, c)
	var occ uint64
	for _, n := range r.Stats.SigOccupancy {
		occ += n
	}
	if r.Stats.Overflows > 0 && occ == 0 {
		t.Errorf("overflows=%d but signature-occupancy histogram is empty", r.Stats.Overflows)
	}
	var chain uint64
	for _, n := range r.Stats.AbortChain {
		chain += n
	}
	if chain != r.Stats.Commits {
		t.Errorf("abort-chain histogram sums to %d, want one bucket per commit (%d)", chain, r.Stats.Commits)
	}
	if r.Stats.Aborts() > 0 && r.Stats.AbortChainMax == 0 {
		t.Errorf("aborts=%d but max abort-chain depth is 0", r.Stats.Aborts())
	}
}

// TestTraceOverflowKinds: the overflow-only event kinds — the ones a
// tiny default-geometry run never exercises — fire once the LLC is
// shrunk below the read set. This is what keeps
// TestTraceMetricsPopulated's occupancy branch from being vacuously
// green.
func TestTraceOverflowKinds(t *testing.T) {
	geo := mem.DefaultConfig()
	geo.LLCSize = 1 << 20 // shrink the LLC so overflow happens at test scale
	cfg := tracedConfig(9)
	cfg.Geometry = &geo
	cfg.Instances = 1
	cfg.ThreadsPerInstance = 4
	cfg.BatchesPerThread = 6
	cfg.ValueSize = 1024
	cfg.Prepopulate = 4096
	cfg.KeySpace = 2048
	cfg.LongROEvery = 3
	cfg.LongROBytes = 2 << 20 // 2 MB read-set ≫ the 1 MB LLC
	r := Run(UHTM(signature.Bits4K, true), BenchEcho, cfg)
	if r.Stats.Overflows == 0 {
		t.Fatalf("workload never overflowed the shrunken LLC: %v", r.Stats)
	}
	seen := map[trace.Kind]int{}
	for _, e := range r.TraceEvents {
		seen[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.EvTxOverflow, trace.EvSigOccupancy, trace.EvLLCEvict} {
		if seen[k] == 0 {
			t.Errorf("overflowing run emitted no %v events (kinds seen: %v)", k, seen)
		}
	}
	var occ uint64
	for _, n := range r.Stats.SigOccupancy {
		occ += n
	}
	if occ == 0 {
		t.Errorf("overflows=%d but signature-occupancy histogram is empty", r.Stats.Overflows)
	}
}

// BenchmarkFig2Untraced / BenchmarkFig2Traced bound the overhead of the
// disabled recorder on a real experiment cell (compare ns/op; the
// budget is <3%).
func BenchmarkFig2Untraced(b *testing.B) {
	cfg := tinyConfig()
	for i := 0; i < b.N; i++ {
		Run(UHTM(signature.Bits1K, true), BenchHashMap, cfg)
	}
}

func BenchmarkFig2Traced(b *testing.B) {
	cfg := tinyConfig()
	cfg.Trace = true
	for i := 0; i < b.N; i++ {
		Run(UHTM(signature.Bits1K, true), BenchHashMap, cfg)
	}
}
