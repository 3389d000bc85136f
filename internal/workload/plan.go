package workload

import (
	"encoding/json"
	"fmt"
	"time"

	"uhtm/internal/harness"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// RunOptions parameterizes one experiment invocation.
type RunOptions struct {
	// Scale multiplies per-thread op counts (1.0 = full-size run). It
	// must be > 0: RunExperiment and RunCrashSweep reject any other
	// value.
	Scale float64
	// Seed, when non-nil, overrides every run's Config.Seed; nil keeps
	// each experiment's default seed.
	Seed *int64
	// Par bounds how many simulations run concurrently; 0 = GOMAXPROCS.
	Par int
	// Trace attaches a trace.Recorder to every run's engine; each
	// Result then carries the run's full event stream in TraceEvents.
	Trace bool
	// Shards restricts the scale experiment's shard axis to one shard
	// count (plus the one-shard baseline the speedup column needs);
	// 0 runs the full axis. Other experiments ignore it.
	Shards int
}

// check rejects options no run can use: a scale that is not > 0 (NaN
// included).
func (o RunOptions) check() error {
	if !(o.Scale > 0) {
		return fmt.Errorf("workload: scale %v is not > 0", o.Scale)
	}
	return nil
}

// seeded applies the seed override and trace flag to a run config.
func (o RunOptions) seeded(c Config) Config {
	if o.Seed != nil {
		c.Seed = *o.Seed
	}
	c.Trace = o.Trace
	return c
}

// A plan enumerates an experiment as a flat spec list plus a fold that
// rebuilds the experiment's table from the results (which arrive in
// spec order — the harness guarantees it regardless of parallelism).
type foldFunc func([]Result) *stats.Table
type planFunc func(RunOptions) ([]harness.Spec[Result], foldFunc)

// Experiment is one entry of the experiment registry.
type Experiment struct {
	Name string
	Desc string
	plan planFunc
}

// registry is the single source of truth for the experiment set: the
// CLI's dispatch, usage text and doc-drift test all derive from it.
var registry = []Experiment{
	{"fig2", "LLC-Bounded vs Ideal unbounded HTM (motivation, Fig. 2)", fig2Plan},
	{"fig6", "PMDK + Echo throughput, normalized to LLC-Bounded (Fig. 6)", fig6Plan},
	{"fig7", "Abort-rate decomposition vs footprint and signature size (Fig. 7)", fig7Plan},
	{"fig8", "Echo with long-running read-only transactions (Fig. 8)", fig8Plan},
	{"fig9a", "Hybrid-Index KV store vs footprint (Fig. 9a)", fig9aPlan},
	{"fig9b", "Dual KV store vs footprint (Fig. 9b)", fig9bPlan},
	{"fig10", "Volatile transactions: undo vs redo DRAM logging (Fig. 10)", fig10Plan},
	{"ablate", "Design-choice ablations (resolution policy, DRAM cache, isolation, DRAM log)", ablationPlan},
	{"scale", "Sharded scale-out: throughput and abort rate vs cores × shards × domains", scalePlan},
	{"recovery", "Measured crash recovery: latency vs log size × checkpoint interval", recoveryPlan},
}

// Experiments lists the registry (name and description only).
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// RunExperiment enumerates, executes (in parallel up to opt.Par) and
// folds one registered experiment. The returned table and results are
// identical for every parallelism level.
func RunExperiment(name string, opt RunOptions) (*stats.Table, []Result, error) {
	for _, e := range registry {
		if e.Name != name {
			continue
		}
		if err := opt.check(); err != nil {
			return nil, nil, err
		}
		specs, fold := e.plan(opt)
		results := harness.Execute(specs, opt.Par)
		return fold(results), results, nil
	}
	return nil, nil, fmt.Errorf("workload: unknown experiment %q", name)
}

// spec builds one harness spec: a fresh engine per Run, identity
// metadata mirrored into the result.
func spec(exp string, s SystemSpec, b Bench, cfg Config) harness.Spec[Result] {
	return harness.Spec[Result]{
		Experiment:  exp,
		System:      s.Name,
		Bench:       string(b),
		FootprintKB: cfg.FootprintKB,
		Seed:        cfg.Seed,
		Run: func() Result {
			start := time.Now()
			r := Run(s, b, cfg)
			r.Experiment = exp
			r.Wall = time.Since(start)
			return r
		},
	}
}

// resultJSON is the wire form of Result: one self-describing record per
// run, with derived throughput included so downstream tooling needs no
// simulator knowledge. wall_ms is host time and is the only
// non-deterministic field.
type resultJSON struct {
	Experiment   string      `json:"experiment"`
	System       string      `json:"system"`
	Bench        string      `json:"bench"`
	FootprintKB  int         `json:"footprint_kb"`
	Seed         int64       `json:"seed"`
	Stats        stats.Stats `json:"stats"`
	SimElapsedPS int64       `json:"sim_elapsed_ps"`
	Throughput   float64     `json:"throughput_tx_s"`
	WallMS       float64     `json:"wall_ms"`

	// Crash-sweep records only.
	Point   string `json:"point,omitempty"`
	Visit   int    `json:"visit,omitempty"`
	Verdict string `json:"verdict,omitempty"`

	// Sharded scale-out records only (experiment "scale").
	Shards       int    `json:"shards,omitempty"`
	CrossCommits uint64 `json:"cross_commits,omitempty"`
	CrossAborts  uint64 `json:"cross_aborts,omitempty"`

	// Recovery records only (experiment "recovery"). Phase latencies are
	// simulated picoseconds.
	RecoveryScanned   int   `json:"recovery_scanned,omitempty"`
	RecoveryApplied   int   `json:"recovery_applied,omitempty"`
	RecoveryScanPS    int64 `json:"recovery_scan_ps,omitempty"`
	RecoveryReplayPS  int64 `json:"recovery_replay_ps,omitempty"`
	RecoveryPersistPS int64 `json:"recovery_persist_ps,omitempty"`
}

// MarshalJSON emits the flat per-run record (see resultJSON).
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Experiment:   r.Experiment,
		System:       r.System,
		Bench:        string(r.Bench),
		FootprintKB:  r.FootprintKB,
		Seed:         r.Seed,
		Stats:        r.Stats,
		SimElapsedPS: int64(r.Elapsed),
		Throughput:   r.Throughput(),
		WallMS:       float64(r.Wall) / float64(time.Millisecond),
		Point:        r.Point,
		Visit:        r.Visit,
		Verdict:      r.Verdict,
		Shards:       r.Shards,
		CrossCommits: r.CrossCommits,
		CrossAborts:  r.CrossAborts,

		RecoveryScanned:   r.RecoveryScanned,
		RecoveryApplied:   r.RecoveryApplied,
		RecoveryScanPS:    int64(r.RecoveryScanPS),
		RecoveryReplayPS:  int64(r.RecoveryReplayPS),
		RecoveryPersistPS: int64(r.RecoveryPersistPS),
	})
}

// UnmarshalJSON reverses MarshalJSON (derived throughput is dropped —
// it is recomputed from commits and elapsed time).
func (r *Result) UnmarshalJSON(b []byte) error {
	var w resultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Result{
		Experiment:   w.Experiment,
		System:       w.System,
		Bench:        Bench(w.Bench),
		FootprintKB:  w.FootprintKB,
		Seed:         w.Seed,
		Stats:        w.Stats,
		Elapsed:      sim.Time(w.SimElapsedPS),
		Wall:         time.Duration(w.WallMS * float64(time.Millisecond)),
		Point:        w.Point,
		Visit:        w.Visit,
		Verdict:      w.Verdict,
		Shards:       w.Shards,
		CrossCommits: w.CrossCommits,
		CrossAborts:  w.CrossAborts,

		RecoveryScanned:   w.RecoveryScanned,
		RecoveryApplied:   w.RecoveryApplied,
		RecoveryScanPS:    sim.Time(w.RecoveryScanPS),
		RecoveryReplayPS:  sim.Time(w.RecoveryReplayPS),
		RecoveryPersistPS: sim.Time(w.RecoveryPersistPS),
	}
	return nil
}
