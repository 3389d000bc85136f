package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/workload"
)

// TestDocCommentListsAllExperiments guards the doc comment against
// drifting from the experiment registry (the bug this test was born
// from: `ablate` existed for a full release without being documented).
func TestDocCommentListsAllExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	names := []string{"table3", "all"}
	for _, e := range workload.Experiments() {
		names = append(names, e.Name)
	}
	for _, n := range names {
		if !strings.Contains(doc, n) {
			t.Errorf("doc comment omits experiment %q — regenerate it from the registry list", n)
		}
	}
	// Every registered flag must be documented — walking the actual
	// flag set means a knob added to experimentFlags cannot ship
	// undocumented (the way -shards could have, had this list stayed
	// hardcoded).
	fs, _ := experimentFlags(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "-"+f.Name) {
			t.Errorf("doc comment omits flag %q", "-"+f.Name)
		}
	})
	for _, f := range []string{"trace-summary"} {
		if !strings.Contains(doc, f) {
			t.Errorf("doc comment omits %q", f)
		}
	}
}

// TestRunOneSmoke runs fig2 at tiny scale end to end through the CLI
// path: table shape, summary line, and one valid JSON record per run.
func TestRunOneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 smoke run skipped in -short mode")
	}
	var out, jsonBuf bytes.Buffer
	enc := json.NewEncoder(&jsonBuf)
	if err := runOne(&out, "fig2", "smoke", workload.RunOptions{Scale: 0.02, Par: 4}, enc, nil); err != nil {
		t.Fatal(err)
	}

	text := out.String()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	// Banner, header, rule, 5 benchmark rows (4 PMDK + Echo), summary,
	// trailing blank collapsed by TrimRight.
	const wantRows = 5
	if len(lines) != 3+wantRows+1 {
		t.Fatalf("unexpected output shape (%d lines):\n%s", len(lines), text)
	}
	if !strings.HasPrefix(lines[1], "benchmark") || !strings.Contains(lines[1], "Ideal/Bounded") {
		t.Errorf("missing table header: %q", lines[1])
	}
	summary := lines[len(lines)-1]
	if !strings.Contains(summary, "10 runs") || !strings.Contains(summary, "commits") || !strings.Contains(summary, "aborts") {
		t.Errorf("summary line missing runs/commits/aborts: %q", summary)
	}

	// One valid, self-describing JSON record per run.
	var records int
	sc := bufio.NewScanner(&jsonBuf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r workload.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		if r.Experiment != "fig2" || r.System == "" || r.Bench == "" {
			t.Errorf("record %d underspecified: %+v", records, r)
		}
		if r.Stats.Commits == 0 {
			t.Errorf("record %d: no commits", records)
		}
		records++
	}
	if records != 10 {
		t.Errorf("got %d JSON records, want 10 (2 systems × 5 benchmarks)", records)
	}
}

// TestRunCrashSmoke runs the fault-injection sweep at tiny scale
// through the CLI path: per-point table, zero failures, and one JSON
// record per injection carrying point/visit/verdict.
func TestRunCrashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep smoke run skipped in -short mode")
	}
	var out, jsonBuf bytes.Buffer
	enc := json.NewEncoder(&jsonBuf)
	fails, err := runCrash(&out, workload.RunOptions{Scale: 0.05, Par: 4}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if fails != 0 {
		t.Errorf("%d recovery failures:\n%s", fails, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "TOTAL") || !strings.Contains(text, "Injection point") {
		t.Errorf("missing per-point table:\n%s", text)
	}
	if !strings.Contains(text, "0 failures") {
		t.Errorf("summary line missing failure count:\n%s", text)
	}

	var records int
	sc := bufio.NewScanner(&jsonBuf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r workload.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		if r.Experiment != "crash" || r.Point == "" || r.Visit == 0 || r.Verdict != "ok" {
			t.Errorf("record %d underspecified: %+v", records, r)
		}
		records++
	}
	if records == 0 || sc.Err() != nil {
		t.Errorf("got %d JSON records (err=%v), want one per injection", records, sc.Err())
	}
}

// TestUnknownExperiment: RunExperiment rejects unknown names with an
// error (the CLI turns this into exit code 2 via its own lookup).
func TestUnknownExperiment(t *testing.T) {
	if _, _, err := workload.RunExperiment("fig99", workload.RunOptions{}); err == nil {
		t.Error("RunExperiment(fig99) succeeded, want error")
	}
}

// stubExperiments swaps the experiment runner for the duration of a
// test.
func stubExperiments(t *testing.T, fn func(string, workload.RunOptions) (*stats.Table, []workload.Result, error)) {
	t.Helper()
	orig := runExperimentFn
	runExperimentFn = fn
	t.Cleanup(func() { runExperimentFn = orig })
}

func fakeResult(exp, system string) workload.Result {
	r := workload.Result{Experiment: exp, System: system, Bench: workload.BenchHashMap, Seed: 1}
	r.Stats.Commits = 3
	return r
}

// TestJSONRecordsSurviveErrorExit is the regression test for the
// record-loss bug: main() used to call os.Exit directly on experiment
// failure, skipping the deferred flush of the buffered -json writer, so
// an `all` run that died on a late experiment lost every record already
// produced. run() must leave the earlier experiments' records on disk.
func TestJSONRecordsSurviveErrorExit(t *testing.T) {
	calls := 0
	stubExperiments(t, func(name string, opt workload.RunOptions) (*stats.Table, []workload.Result, error) {
		calls++
		if calls >= 2 {
			return nil, nil, errors.New("injected failure")
		}
		tbl := &stats.Table{Header: []string{"x"}}
		return tbl, []workload.Result{fakeResult(name, "A"), fakeResult(name, "B")}, nil
	})

	path := filepath.Join(t.TempDir(), "out.jsonl")
	var out, errOut bytes.Buffer
	code := run([]string{"-json", path, "all"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "injected failure") {
		t.Errorf("stderr does not report the failure: %q", errOut.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no JSON file after error exit: %v", err)
	}
	var records int
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var r workload.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("record %d corrupt: %v", records, err)
		}
		records++
	}
	if records != 2 {
		t.Errorf("got %d records on disk after error exit, want 2 (the first experiment's)", records)
	}
}

// TestSeedZeroIsSelectable is the regression test for the -seed
// sentinel bug: 0 used to mean "no override", making seed 0 the one
// unselectable seed. An explicit `-seed 0` must reach the runs; an
// omitted flag must keep per-experiment defaults.
func TestSeedZeroIsSelectable(t *testing.T) {
	var got []workload.RunOptions
	stubExperiments(t, func(name string, opt workload.RunOptions) (*stats.Table, []workload.Result, error) {
		got = append(got, opt)
		return &stats.Table{Header: []string{"x"}}, nil, nil
	})

	var out, errOut bytes.Buffer
	if code := run([]string{"-seed", "0", "fig2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, errOut.String())
	}
	if code := run([]string{"fig2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, errOut.String())
	}
	if len(got) != 2 {
		t.Fatalf("runner called %d times, want 2", len(got))
	}
	if !got[0].SeedSet || got[0].Seed != 0 {
		t.Errorf("explicit -seed 0 not marked: %+v", got[0])
	}
	if got[1].SeedSet {
		t.Errorf("omitted -seed marked as explicit: %+v", got[1])
	}
}

// TestSeedZeroReachesConfig: an explicitly chosen seed 0 overrides the
// per-experiment default (42) in the actual run configs — the
// end-to-end half of the sentinel regression.
func TestSeedZeroReachesConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("real fig2 run skipped in -short mode")
	}
	_, rs, err := workload.RunExperiment("fig2", workload.RunOptions{Scale: 0.01, SeedSet: true, Seed: 0, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Seed != 0 {
			t.Fatalf("run %s/%s seed = %d, want explicit 0", r.System, r.Bench, r.Seed)
		}
	}
}

// TestTraceFileWrittenAndLoadable: `-trace` produces a Chrome
// trace-event file that parses back into transaction slices, and
// `trace-summary` renders it.
func TestTraceFileWrittenAndLoadable(t *testing.T) {
	if testing.Short() {
		t.Skip("traced fig2 run skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "0.01", "-par", "4", "-trace", path, "fig2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, errOut.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	txs, err := trace.ReadChromeTxs(f)
	if err != nil {
		t.Fatalf("trace file unparseable: %v", err)
	}
	if len(txs) == 0 {
		t.Fatal("trace file has no transaction slices")
	}

	var sum, sumErr bytes.Buffer
	if code := run([]string{"trace-summary", path}, &sum, &sumErr); code != 0 {
		t.Fatalf("trace-summary exit code = %d (stderr: %s)", code, sumErr.String())
	}
	for _, want := range []string{"tx", "outcome", "commit", "attempts:"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("trace-summary output missing %q:\n%s", want, sum.String())
		}
	}
}
