package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/workload"
)

// The grid workload regenerates the paper's Figure 6 (45 cells: nine
// systems × HashMap, B-Tree, RB-Tree, SkipList and Echo, durable 100 KB
// transactions) and Figure 10 (24 cells: UHTM {512, 1k, 4k}_opt × undo
// or redo DRAM log × 100–400 KB, volatile) at scale 0.05, two cells at a
// time, through workload.RunExperiment — what a researcher runs. Every
// cell's statistics must match the digest recorded in
// grid_reference.tsv.

const (
	gridScale = 0.05
	gridPar   = 2
)

//go:embed grid_reference.tsv
var gridReference string

// cell is one grid cell, rebuilt from the workload package's public
// pieces in RunExperiment's order so the traced run can execute cells
// one at a time. The digest check proves the rebuild matches.
type cell struct {
	exp   string
	sys   workload.SystemSpec
	bench workload.Bench
	cfg   workload.Config
}

// pmdkConfig mirrors the Figure 6/10 transaction shape at gridScale.
func pmdkConfig(footprintKB int) workload.Config {
	c := workload.DefaultConfig()
	c.FootprintKB = footprintKB
	c.ValueSize = footprintKB << 10
	c.KeySpace = 16384
	c.Prepopulate = 16384
	c.PrepopValueSize = 64
	c.BatchesPerThread = max(1, int(float64(c.BatchesPerThread)*gridScale+0.5))
	return c
}

func gridCells() []cell {
	var cells []cell
	fig6 := pmdkConfig(100)
	for _, b := range append(workload.PMDKBenches(), workload.BenchEcho) {
		for _, s := range workload.Fig6Systems() {
			cells = append(cells, cell{"fig6", s, b, fig6})
		}
	}
	for _, fp := range []int{100, 200, 300, 400} {
		c := pmdkConfig(fp)
		c.Persistent = false
		for _, bits := range []int{signature.Bits512, signature.Bits1K, signature.Bits4K} {
			for _, log := range []core.DRAMLogKind{core.DRAMUndo, core.DRAMRedo} {
				s := workload.UHTM(bits, true)
				s.Opts.DRAMLog = log
				s.Name = fmt.Sprintf("%s_%v", s.Name, log)
				cells = append(cells, cell{"fig10", s, workload.BenchMixed, c})
			}
		}
	}
	return cells
}

// findCell returns the Figure 6 cell of system on bench.
func findCell(cells []cell, system string, bench workload.Bench) cell {
	for _, c := range cells {
		if c.exp == "fig6" && c.sys.Name == system && c.bench == bench {
			return c
		}
	}
	panic("perfbench: the grid has no Figure 6 " + system + " " + string(bench) + " cell")
}

// warmCell is the set-up's untimed cell: Ideal on SkipList, one of the
// cheapest.
func warmCell(cells []cell) cell { return findCell(cells, "Ideal", workload.BenchSkipList) }

// typicalCell is the cell p50_us times on its own: UHTM 1k_opt on the
// B-Tree, near the median of the grid's per-cell host times. Inside the
// grid a cell's time depends on which cell runs beside it, so the
// median over the grid's cells moved by a fifth between runs; the same
// cell run alone moves with the host only.
func typicalCell(cells []cell) cell { return findCell(cells, "1k_opt", workload.BenchBTree) }

// slotRounds is how many rounds of samples each of the grid's three
// sample slots takes; a round is one set-up, one run of typicalCell
// alone and one regeneration of the recovery experiment.
const slotRounds = 4

// signatureCell reports whether a cell checks every access against
// signatures (SigOnly and the *_sig UHTM variants). Those cells make
// tens of millions of probes, so the traced run skips them.
func signatureCell(system string) bool {
	return strings.HasPrefix(system, "SigOnly") || strings.HasSuffix(system, "_sig")
}

func cellKey(exp, system string, b workload.Bench, fp int) string {
	return fmt.Sprintf("%s/%s/%s/%d", exp, system, b, fp)
}

func (c cell) key() string { return cellKey(c.exp, c.sys.Name, c.bench, c.cfg.FootprintKB) }

func resultKey(r workload.Result) string {
	return cellKey(r.Experiment, r.System, r.Bench, r.FootprintKB)
}

// digest hashes a result's deterministic outputs.
func digest(r workload.Result) string {
	b, err := json.Marshal(struct {
		Stats                       stats.Stats
		Elapsed                     sim.Time
		Scanned, Applied            int
		ScanPS, ReplayPS, PersistPS sim.Time
	}{r.Stats, r.Elapsed, r.RecoveryScanned, r.RecoveryApplied, r.RecoveryScanPS, r.RecoveryReplayPS, r.RecoveryPersistPS})
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func parseReference(s string) map[string]string {
	ref := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			ref[f[0]] = f[1]
		}
	}
	return ref
}

// checkResults compares results against the reference digests.
func checkResults(out *result, ref map[string]string, rs []workload.Result) {
	for _, r := range rs {
		want, ok := ref[resultKey(r)]
		switch {
		case !ok:
			out.fail("grid cell %s has no reference digest", resultKey(r))
		case digest(r) != want:
			out.fail("grid cell %s digest %s, reference %s", resultKey(r), digest(r), want)
		default:
			out.ok(1)
		}
	}
}

// gridExperiments are the experiments in the timed grid. Their inputs
// are the figures' own (seed 42), so every digest is checkable; the
// grid has no input for --seed to vary.
var gridExperiments = []string{"fig6", "fig10"}

// recoveryScale is the scale of the recovery experiment the grid times
// for recover_ms: full size.
const recoveryScale = 1.0

// setupReps is how many set-ups run before the timed grid.
const setupReps = 3

func runGrid(o opts, out *result) error {
	ref := parseReference(gridReference)
	// Set-up: enumerate the cells and run one cell untimed, so code,
	// heap and page tables are warm before the timed grid.
	var setupS []float64
	var cells []cell
	setup := func(n int) {
		for i := 0; i < n; i++ {
			start := time.Now()
			cells = gridCells()
			warm := warmCell(cells)
			r := workload.Run(warm.sys, warm.bench, warm.cfg)
			r.Experiment = warm.exp
			setupS = append(setupS, time.Since(start).Seconds())
			checkResults(out, ref, []workload.Result{r})
		}
	}
	setup(setupReps)

	// The repeated samples behind setup_s, p50_us and recover_ms are
	// also taken, interleaved, in slots before, between and after the
	// experiments. This host's speed flips between a fast and a slow
	// mode every few seconds; spreading the samples over the run keeps
	// their medians off whichever mode one stretch happened to be in.
	var cellUS, recMS []float64
	sample := func() error {
		for i := 0; i < slotRounds; i++ {
			setup(1)
			cellUS = append(cellUS, timeTypicalCell(cells, ref, out))
			ms, err := timeRecovery(ref, out)
			if err != nil {
				return err
			}
			recMS = append(recMS, ms)
		}
		return nil
	}
	if err := sample(); err != nil {
		return err
	}
	var results []workload.Result
	expWall := map[string]float64{}
	wall := 0.0
	for _, exp := range gridExperiments {
		t0 := time.Now()
		_, rs, err := workload.RunExperiment(exp, workload.RunOptions{Scale: gridScale, Par: gridPar})
		if err != nil {
			return err
		}
		expWall[exp] = time.Since(t0).Seconds()
		wall += expWall[exp]
		results = append(results, rs...)
		if err := sample(); err != nil {
			return err
		}
	}
	checkResults(out, ref, results)
	if len(results) != len(cells) {
		return fmt.Errorf("grid ran %d cells, want %d", len(results), len(cells))
	}

	var gridCellUS []float64
	logSum := 0.0
	var total stats.Stats
	threadS := 0.0
	var sigS, optS float64
	for i, r := range results {
		gridCellUS = append(gridCellUS, float64(r.Wall)/1e3)
		logSum += math.Log(r.Throughput() / 1e3)
		total.Add(&r.Stats)
		threadS += r.Elapsed.Seconds() * float64(cells[i].cfg.Instances*cells[i].cfg.ThreadsPerInstance)
		if signatureCell(r.System) {
			sigS += r.Wall.Seconds()
		} else {
			optS += r.Wall.Seconds()
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: grid: typical cell ms %v; recovery ms %v; set-up ms %v\n", roundAll(cellUS, 1e3), roundAll(recMS, 1), roundAll(setupS, 1e-3))
	out.set("setup_s", medianOf(setupS))
	out.set("wall_s", wall)
	out.set("p50_us", medianOf(cellUS))
	out.set("p99_us", quantile(gridCellUS, 0.99))
	out.set("max_qps", float64(len(results))/wall)
	out.set("sim_ktx_per_s", math.Exp(logSum/float64(len(results))))
	out.set("workload.fig6_s", expWall["fig6"])
	out.set("workload.fig10_s", expWall["fig10"])
	out.set("workload.sig_cells_s", sigS)
	out.set("workload.opt_cells_s", optS)
	setStatsShares(out, &total, threadS)

	out.set("recover_ms", medianOf(recMS))
	out.set("peak_rss_mb", peakRSSMB())

	if !o.traced {
		return nil
	}
	out.zero(servingOnly)
	traceGrid(cells, results, ref, out)
	return runProbes(out)
}

// timeTypicalCell runs typicalCell alone and returns its host time in
// µs.
func timeTypicalCell(cells []cell, ref map[string]string, out *result) float64 {
	c := typicalCell(cells)
	t0 := time.Now()
	r := workload.Run(c.sys, c.bench, c.cfg)
	us := float64(time.Since(t0)) / 1e3
	r.Experiment = c.exp
	checkResults(out, ref, []workload.Result{r})
	return us
}

// timeRecovery regenerates the recovery experiment's table (per cell:
// load, power failure, timed recovery) and returns its host time in ms.
func timeRecovery(ref map[string]string, out *result) (float64, error) {
	t0 := time.Now()
	_, rs, err := workload.RunExperiment("recovery", workload.RunOptions{Scale: recoveryScale, Par: 1})
	if err != nil {
		return 0, err
	}
	ms := float64(time.Since(t0)) / 1e6
	checkResults(out, ref, rs)
	return ms, nil
}

// setStatsShares sets the metrics read from aggregated transaction
// statistics; threadS is the simulated thread time they cover.
func setStatsShares(out *result, s *stats.Stats, threadS float64) {
	attempts := float64(s.Attempts())
	out.set("signature.checks_per_attempt", ratio(float64(s.SigChecks), attempts))
	out.set("core.overflow_share", ratio(float64(s.Overflows), attempts))
	out.set("core.slow_path_wait_share", ratio(s.SlowPathWait.Seconds(), threadS))
	out.set("core.abort_true_share", s.CauseShare(stats.CauseTrueConflict))
	out.set("core.abort_fp_share", s.CauseShare(stats.CauseFalsePositive))
	out.set("core.abort_capacity_share", s.CauseShare(stats.CauseCapacity))
	out.set("core.abort_lock_share", s.CauseShare(stats.CauseLock))
}

// traceCounts is one traced cell's event stream reduced to counts.
type traceCounts struct {
	events    uint64
	kinds     [256]uint64
	fills     [4]uint64 // EvMemFill by source
	sigFP     uint64
	redoApps  uint64 // EvWALAppend on the durable NVM redo rings
	undoApps  uint64 // EvWALAppend on the volatile DRAM rings
	commitSim []float64
}

func countTrace(evs []trace.Event) *traceCounts {
	tc := &traceCounts{events: uint64(len(evs))}
	begin := map[uint64]int64{}
	for _, e := range evs {
		tc.kinds[e.Kind]++
		switch e.Kind {
		case trace.EvMemFill:
			if e.Arg < uint64(len(tc.fills)) {
				tc.fills[e.Arg]++
			}
		case trace.EvSigProbe:
			if e.Arg == 2 {
				tc.sigFP++
			}
		case trace.EvWALAppend:
			if e.Arg>>8&1 == 1 {
				tc.redoApps++
			} else {
				tc.undoApps++
			}
		case trace.EvTxCommitBegin:
			begin[e.TxID] = e.TS
		case trace.EvTxCommitDone:
			if ts, ok := begin[e.TxID]; ok {
				tc.commitSim = append(tc.commitSim, float64(e.TS-ts)/1e3)
				delete(begin, e.TxID)
			}
		}
	}
	return tc
}

// traceGrid is the traced per-layer run: every cell that is not a
// signature cell runs again with the trace recorder on, one at a time,
// and each stream is reduced to counts before the next cell starts. The
// largest stream, a 300–400 KB Figure 10 cell's, holds about 9 M events
// (430 MB, twice that while the recorder's slice grows).
func traceGrid(cells []cell, timed []workload.Result, ref map[string]string, out *result) {
	untraced := map[string]time.Duration{}
	for _, r := range timed {
		untraced[resultKey(r)] = r.Wall
	}
	var kinds [256]uint64
	var fills [4]uint64
	var events, sigFP uint64
	var redoApps, fig6Commits, undoApps, undoCommits float64
	var commitSim []float64
	var tracedWall, untracedWall time.Duration
	for _, c := range cells {
		if signatureCell(c.sys.Name) {
			continue
		}
		cfg := c.cfg
		cfg.Trace = true
		t0 := time.Now()
		r := workload.Run(c.sys, c.bench, cfg)
		tracedWall += time.Since(t0)
		untracedWall += untraced[c.key()]
		r.Experiment = c.exp
		tc := countTrace(r.TraceEvents)
		r.TraceEvents = nil
		debug.FreeOSMemory()                         // drop this stream before the next one grows
		checkResults(out, ref, []workload.Result{r}) // tracing must not change a result

		events += tc.events
		for k := range kinds {
			kinds[k] += tc.kinds[k]
		}
		for src := range fills {
			fills[src] += tc.fills[src]
		}
		sigFP += tc.sigFP
		commits := float64(tc.kinds[trace.EvTxCommitDone])
		if c.exp == "fig6" {
			redoApps += float64(tc.redoApps)
			fig6Commits += commits
		}
		if c.exp == "fig10" && c.sys.Opts.DRAMLog == core.DRAMUndo {
			undoApps += float64(tc.undoApps)
			undoCommits += commits
		}
		commitSim = append(commitSim, tc.commitSim...)
	}
	k := func(kind trace.Kind) float64 { return float64(kinds[kind]) }
	commits := k(trace.EvTxCommitDone)
	out.set("cache.l1_hit_rate", ratio(k(trace.EvL1Hit), k(trace.EvL1Hit)+k(trace.EvL1Miss)))
	out.set("cache.llc_hit_rate", ratio(k(trace.EvLLCHit), k(trace.EvLLCHit)+k(trace.EvLLCMiss)))
	out.set("cache.llc_evicts_per_tx", ratio(k(trace.EvLLCEvict), commits))
	out.set("core.events_per_tx", ratio(float64(events), commits))
	out.set("sim.host_ns_per_event", ratio(float64(untracedWall.Nanoseconds()), float64(events)))
	allFills := float64(fills[trace.MemDRAM] + fills[trace.MemDRAMCache] + fills[trace.MemNVM] + fills[trace.MemStreamed])
	out.set("mem.fill_nvm_share", ratio(float64(fills[trace.MemNVM]), allFills))
	out.set("dramcache.fills_per_tx", ratio(k(trace.EvDCFill), commits))
	out.set("dramcache.hit_share", ratio(float64(fills[trace.MemDRAMCache]), float64(fills[trace.MemDRAMCache]+fills[trace.MemNVM])))
	out.set("dramcache.drops_per_abort", ratio(k(trace.EvDCDrop), k(trace.EvTxAbort)))
	out.set("mem.nvm_persists_per_tx", ratio(k(trace.EvNVMPersist), commits))
	out.set("signature.probes_per_tx", ratio(k(trace.EvSigProbe), commits))
	out.set("signature.fp_share", ratio(float64(sigFP), k(trace.EvSigProbe)))
	out.set("wal.redo_appends_per_commit", ratio(redoApps, fig6Commits))
	out.set("wal.undo_appends_per_commit", ratio(undoApps, undoCommits))
	out.set("wal.truncates_per_commit", ratio(k(trace.EvWALTruncate), commits))
	out.set("core.commit_sim_ns", medianOf(commitSim))
	out.set("trace.overhead_x", ratio(float64(tracedWall), float64(untracedWall)))
}
