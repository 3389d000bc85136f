// Command uhtmsim regenerates the paper's tables and figures on the
// simulated machine. Each experiment prints the same rows/series the
// paper reports; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	uhtmsim [-scale f] [-seed n] [-par n] [-shards n] [-json path] [-trace path] <experiment>
//	uhtmsim -crash [-scale f] [-seed n] [-par n] [-json path]
//	uhtmsim serve [-addr host:port] [-shards n] [-cores n] [-prepopulate n] [-seed n]
//	uhtmsim loadgen [-addr host:port] [-qps f] [-conns n] [-duration d] [-out path]
//	uhtmsim trace-summary <trace.json>
//
// where experiment is one of: table3, fig2, fig6, fig7, fig8, fig9a,
// fig9b, fig10, ablate, scale, recovery, all. (The authoritative list — including
// one-line descriptions — is printed by `uhtmsim -h` straight from the
// experiment registry; a test asserts this comment tracks it, and walks
// the flag set asserting every flag appears above.)
//
// Independent simulation points of an experiment grid run concurrently,
// up to -par engines at a time (default GOMAXPROCS); results are
// reassembled in grid order, so the printed tables are byte-identical
// at every -par value. -json appends one machine-readable record per
// run (JSON Lines) with the full stats decomposition, throughput and
// host wall time. Records accumulated before a failure are flushed on
// every exit path, so a grid that dies halfway still leaves its
// completed runs on disk.
//
// -seed overrides every run's workload RNG seed; passing it explicitly
// selects that exact seed, including 0 (omitting the flag keeps each
// experiment's default).
//
// -trace records every transaction-lifecycle, cache, signature and log
// event of every run and writes one Chrome trace-event JSON file
// (loadable in Perfetto or chrome://tracing): one process per grid
// cell, one track per core plus a "machine" track, one slice per
// transaction attempt, and flow arrows from each abort's enemy to its
// victim. The file is byte-identical at every -par value. `uhtmsim
// trace-summary <file>` prints a per-transaction table from such a
// file without a browser. See EXPERIMENTS.md for the schema and a
// worked diagnosis.
//
// The scale experiment is the sharded scale-out axis (see
// ARCHITECTURE.md §8): the line-address space is partitioned across N
// independent engine shards running on real OS threads, with
// cross-shard transactions committed by a WAL-backed two-phase
// protocol. Its grid is total cores × shard count × conflict domains
// (64–1024 simulated cores); -shards restricts the shard-count axis to
// one value (the one-shard baseline always runs too, so the printed
// speedup column stays meaningful). Scale records extend the JSON
// schema with shards, cross_commits and cross_aborts.
//
// -crash runs the crash-point fault-injection sweep instead of an
// experiment (see RECOVERY.md): every injection point of a small
// workload exhaustively plus a seeded-random sample of a large one,
// killing the simulation mid-protocol, running recovery and verifying
// it against a committed-prefix oracle. The sweep also covers the
// sharded cluster: every cross-shard 2PC point (prepare logged,
// decision logged, apply mark, per-line apply, resolution-cell
// persist) exhaustively, plus a sample of the machine-level points
// underneath it, verified against the same oracle extended with
// cluster-wide atomicity. One JSON record is emitted per injection
// (point, seed, verdict); the exit status is 1 if any injection's
// recovery violated an invariant.
//
// The recovery experiment measures crash recovery itself: each grid
// cell commits a known volume of redo log (checkpointing every so many
// commits — interval 0 never checkpoints), pulls the plug, and times
// the recovery pass. Its records extend the JSON schema with
// recovery_scanned, recovery_applied and the modeled per-phase
// latencies recovery_scan_ps, recovery_replay_ps and
// recovery_persist_ps; EXPERIMENTS.md explains how to read the
// latency-vs-log-size curve.
//
// `uhtmsim serve` runs the durable KV store as a long-lived TCP
// service speaking a RESP-subset protocol, and `uhtmsim loadgen`
// drives such a server with open-loop traffic, reporting latency
// percentiles, saturation throughput and the induced abort rate as
// JSON Lines. Both are documented in SERVING.md; the full subcommand
// registry (serve, loadgen, trace-summary) is printed by
// `uhtmsim -h`, and a drift test pins this comment to it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runExperimentFn indirects workload.RunExperiment so tests can inject
// failing experiments.
var runExperimentFn = workload.RunExperiment

// run is the entire CLI behind a testable seam: parse, execute, return
// the exit code. Output sinks (-json, -trace) are finalized by defers,
// which run on every return path — the earlier main() called os.Exit
// directly, skipping the deferred flush and losing all buffered JSON
// records whenever a late experiment failed.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs, fv := experimentFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Subcommand dispatch comes straight from the registry in serve.go,
	// so the dispatcher and the usage text cannot drift apart.
	if fs.NArg() > 0 {
		for _, sc := range subcommands {
			if fs.Arg(0) == sc.name {
				return sc.run(fs.Args()[1:], stdout, stderr)
			}
		}
	}

	if want := 1 - b2i(*fv.crashSweep); fs.NArg() != want {
		fs.Usage()
		return 2
	}

	opt := workload.RunOptions{
		Scale:  *fv.scale,
		Par:    *fv.par,
		Trace:  *fv.tracePath != "",
		Shards: *fv.shards,
	}
	// flag.Visit distinguishes an explicit `-seed 0` from an omitted
	// flag: 0 is a legitimate seed, not a sentinel.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			opt.Seed = fv.seed
		}
	})

	enc, flush, err := jsonEmitter(*fv.jsonPath, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
		return 1
	}
	defer flush()

	sink := newTraceSink(*fv.tracePath)
	defer func() {
		if err := sink.write(); err != nil {
			fmt.Fprintf(stderr, "uhtmsim: writing trace: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *fv.crashSweep {
		fails, err := runCrash(stdout, opt, enc)
		if err != nil {
			fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
			return 1
		}
		if fails > 0 {
			return 1
		}
		return 0
	}
	name := fs.Arg(0)

	if name == "table3" {
		fmt.Fprintln(stdout, "Table III — simulation configuration")
		fmt.Fprint(stdout, workload.TableIII().Format())
		return 0
	}
	if name == "all" {
		fmt.Fprintln(stdout, "Table III — simulation configuration")
		fmt.Fprint(stdout, workload.TableIII().Format())
		fmt.Fprintln(stdout)
		for _, e := range workload.Experiments() {
			if err := runOne(stdout, e.Name, e.Desc, opt, enc, sink); err != nil {
				fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
				return 1
			}
		}
		return 0
	}
	for _, e := range workload.Experiments() {
		if e.Name == name {
			if err := runOne(stdout, e.Name, e.Desc, opt, enc, sink); err != nil {
				fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "uhtmsim: unknown experiment %q\n", name)
	fs.Usage()
	return 2
}

// expFlags holds the top-level flag values parsed by experimentFlags.
type expFlags struct {
	scale      *float64
	seed       *int64
	par        *int
	shards     *int
	jsonPath   *string
	tracePath  *string
	crashSweep *bool
}

// experimentFlags builds the top-level flag set. Every experiment knob
// registers here and nowhere else: the doc-drift test walks the
// returned set and asserts the package comment documents each flag, so
// an undocumented knob fails CI.
func experimentFlags(stderr io.Writer) (*flag.FlagSet, *expFlags) {
	fs := flag.NewFlagSet("uhtmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fv := &expFlags{
		scale:      fs.Float64("scale", 1.0, "op-count scale factor (1.0 = full-size runs)"),
		seed:       fs.Int64("seed", 0, "workload RNG seed override (omit to keep per-experiment defaults)"),
		par:        fs.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)"),
		shards:     fs.Int("shards", 0, "restrict the scale experiment's shard axis to this count (0 = full axis)"),
		jsonPath:   fs.String("json", "", "write one JSON record per run to this file (\"-\" = stdout)"),
		tracePath:  fs.String("trace", "", "write a Chrome trace-event file of every run to this path"),
		crashSweep: fs.Bool("crash", false, "run the crash-point fault-injection sweep instead of an experiment"),
	}
	fs.Usage = func() { usage(fs, stderr) }
	return fs, fv
}

// jsonEmitter opens the -json sink: nil when disabled, stdout for "-",
// else a freshly truncated file. flush finalizes the sink and is safe
// to call more than once.
func jsonEmitter(path string, stdout io.Writer) (enc *json.Encoder, flush func(), err error) {
	if path == "" {
		return nil, func() {}, nil
	}
	if path == "-" {
		return json.NewEncoder(stdout), func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	done := false
	return json.NewEncoder(w), func() {
		if done {
			return
		}
		done = true
		w.Flush()
		f.Close()
	}, nil
}

// traceSink accumulates each grid cell's event stream in spec order and
// writes the combined Chrome trace file once, when the CLI finishes
// (including error exits, so completed runs are never lost).
type traceSink struct {
	path string
	runs []trace.Run
}

// newTraceSink returns nil when tracing is disabled; all methods are
// nil-safe.
func newTraceSink(path string) *traceSink {
	if path == "" {
		return nil
	}
	return &traceSink{path: path}
}

// add appends one result's events under its grid-cell label.
func (s *traceSink) add(r workload.Result) {
	if s == nil || len(r.TraceEvents) == 0 {
		return
	}
	label := fmt.Sprintf("%s/%s/%s/%dKB/seed%d",
		r.Experiment, r.System, r.Bench, r.FootprintKB, r.Seed)
	s.runs = append(s.runs, trace.Run{Label: label, Events: r.TraceEvents})
}

// write renders the accumulated runs as one Chrome trace-event file.
func (s *traceSink) write() error {
	if s == nil {
		return nil
	}
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, s.runs, causeName); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// causeName resolves numeric abort-cause codes for trace rendering —
// injected here because internal/trace sits below internal/stats.
func causeName(c uint64) string { return stats.AbortCause(c).String() }

// traceSummary prints a per-transaction table from a Chrome trace file
// written by -trace.
func traceSummary(stdout, stderr io.Writer, path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
		return 1
	}
	defer f.Close()
	txs, err := trace.ReadChromeTxs(f)
	if err != nil {
		fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
		return 1
	}
	// Stable run order for the per-run sections: first appearance.
	order := []string{}
	byRun := map[string][]trace.ChromeTx{}
	for _, tx := range txs {
		if _, ok := byRun[tx.Run]; !ok {
			order = append(order, tx.Run)
		}
		byRun[tx.Run] = append(byRun[tx.Run], tx)
	}
	for _, run := range order {
		fmt.Fprintf(stdout, "== %s\n", run)
		tbl := &stats.Table{Header: []string{
			"tx", "core", "attempt", "slow", "start_us", "dur_us",
			"reads", "writes", "wal", "outcome",
		}}
		rows := byRun[run]
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].StartUS < rows[j].StartUS })
		var commits, aborts int
		for _, tx := range rows {
			switch {
			case tx.Outcome == "commit":
				commits++
			case tx.Outcome != "in-flight":
				aborts++
			}
			outcome := tx.Outcome
			if tx.Enemy != 0 {
				outcome = fmt.Sprintf("%s (enemy tx%d)", outcome, tx.Enemy)
			}
			tbl.AddRow(tx.Name, fmt.Sprint(tx.Core), fmt.Sprint(tx.Attempt),
				fmt.Sprint(tx.Slow), fmt.Sprintf("%.3f", tx.StartUS),
				fmt.Sprintf("%.3f", tx.DurUS), fmt.Sprint(tx.Reads),
				fmt.Sprint(tx.Writes), fmt.Sprint(tx.WAL), outcome)
		}
		fmt.Fprint(stdout, tbl.Format())
		fmt.Fprintf(stdout, "(%d attempts: %d commits, %d aborts)\n\n", len(rows), commits, aborts)
	}
	if len(order) == 0 {
		fmt.Fprintln(stdout, "(no transaction slices in trace)")
	}
	return 0
}

// runOne executes one experiment, prints its table plus a per-experiment
// summary line, and emits every run's JSON record and trace events.
func runOne(out io.Writer, name, desc string, opt workload.RunOptions, enc *json.Encoder, sink *traceSink) error {
	fmt.Fprintf(out, "== %s — %s (scale=%.2f)\n", name, desc, opt.Scale)
	start := time.Now()
	tbl, results, err := runExperimentFn(name, opt)
	if err != nil {
		return err
	}
	fmt.Fprint(out, tbl.Format())
	var commits, aborts uint64
	for _, r := range results {
		commits += r.Stats.Commits
		aborts += r.Stats.Aborts()
	}
	fmt.Fprintf(out, "(%s: %d runs, %d commits, %d aborts, in %v)\n\n",
		name, len(results), commits, aborts, time.Since(start).Round(time.Millisecond))
	for _, r := range results {
		sink.add(r)
	}
	if enc != nil {
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				return fmt.Errorf("encoding %s record: %w", name, err)
			}
		}
	}
	return nil
}

// runCrash executes the crash-point fault-injection sweep (see
// RECOVERY.md), prints the per-point table, emits every injection's
// JSON record and returns the number of recovery-invariant failures.
func runCrash(out io.Writer, opt workload.RunOptions, enc *json.Encoder) (int, error) {
	fmt.Fprintf(out, "== crash — fault-injection sweep with recovery verification (scale=%.2f)\n", opt.Scale)
	start := time.Now()
	tbl, results, err := workload.RunCrashSweep(opt)
	if err != nil {
		return 0, err
	}
	fmt.Fprint(out, tbl.Format())
	fails := workload.CrashFailures(results)
	fmt.Fprintf(out, "(crash: %d injections, %d failures, in %v)\n\n",
		len(results), fails, time.Since(start).Round(time.Millisecond))
	if enc != nil {
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				return fails, fmt.Errorf("encoding crash record: %w", err)
			}
		}
	}
	for _, r := range results {
		if r.Verdict != "ok" {
			fmt.Fprintf(out, "FAIL %s visit %d: %s\n", r.Point, r.Visit, r.Verdict)
		}
	}
	return fails, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `usage: uhtmsim [-scale f] [-seed n] [-par n] [-shards n] [-json path] [-trace path] <experiment>
       uhtmsim -crash [-scale f] [-seed n] [-par n] [-json path]
`)
	for _, sc := range subcommands {
		fmt.Fprintf(w, "       %s\n", sc.synopsis)
	}
	fmt.Fprintf(w, "\nsubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-14s %s\n", sc.name, sc.desc)
	}
	fmt.Fprintf(w, "\nexperiments:\n  table3   simulation configuration (Table III)\n")
	for _, e := range workload.Experiments() {
		fmt.Fprintf(w, "  %-8s %s\n", e.Name, e.Desc)
	}
	fmt.Fprintf(w, "  all      everything above\n")
	fs.PrintDefaults()
}
