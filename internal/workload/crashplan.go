package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"uhtm/internal/crash"
	"uhtm/internal/harness"
	"uhtm/internal/shard"
	"uhtm/internal/stats"
)

// crashSamplesFullScale is the seeded-random sample size drawn from the
// large workload's injection list at Scale = 1.0 (scaled linearly, with
// a small floor so even smoke runs inject a few large-workload crashes).
const crashSamplesFullScale = 96

// shardSamplesFullScale is the matching sample size for non-2PC points
// of the sharded cluster (the core/wal/mem protocol steps running under
// a sharded run); the 2PC points themselves (shard.*) are always swept
// exhaustively.
const shardSamplesFullScale = 32

// RunCrashSweep executes the crash-point fault-injection sweep: every
// (point, visit) pair of the small workload exhaustively, plus a
// seeded-random sample of the large workload's pairs, plus the sharded
// cluster — every 2PC protocol point (prepare logged, decision logged,
// apply mark, per-line apply, resolution-cell persist) exhaustively and
// a sample of the machine-level points underneath it — each as an
// independent deterministic simulation fanned out across the harness
// worker pool. The returned results carry one record per injection
// (Point/Visit/Verdict populated) in a stable order; the table folds
// them per injection point.
func RunCrashSweep(opt RunOptions) (*stats.Table, []Result, error) {
	if err := opt.check(); err != nil {
		return nil, nil, err
	}
	small, large, scfg := crash.SmallWorkload(), crash.LargeWorkload(), shard.SweepConfig()
	if opt.Seed != nil {
		small.Seed, large.Seed, scfg.Seed = *opt.Seed, *opt.Seed, *opt.Seed
	}
	// sample draws a scaled, floored seeded-random subset.
	sample := func(injs []crash.Injection, fullScale float64, seed int64) []crash.Injection {
		return crash.Sample(injs, max(int(math.Ceil(fullScale*opt.Scale)), 4), seed)
	}
	targets := []struct {
		t      crash.Target
		shards int // Result.Shards (0: single machine)
		pick   func([]crash.Injection) []crash.Injection
	}{
		{small, 0, func(injs []crash.Injection) []crash.Injection { return injs }},
		{large, 0, func(injs []crash.Injection) []crash.Injection {
			return sample(injs, crashSamplesFullScale, large.Seed)
		}},
		{shard.SweepTarget(scfg), scfg.Shards, func(injs []crash.Injection) []crash.Injection {
			var twoPC, machine []crash.Injection
			for _, inj := range injs {
				if strings.Contains(inj.Point, "shard.") {
					twoPC = append(twoPC, inj)
				} else {
					machine = append(machine, inj)
				}
			}
			return append(twoPC, sample(machine, shardSamplesFullScale, scfg.Seed)...)
		}},
	}

	var specs []harness.Spec[Result]
	for _, tg := range targets {
		injs, _, err := crash.Enumerate(tg.t)
		if err != nil {
			return nil, nil, err
		}
		name, seed := tg.t.Label()
		for _, inj := range tg.pick(injs) {
			t, inj, shards := tg.t, inj, tg.shards
			specs = append(specs, harness.Spec[Result]{
				Experiment: "crash",
				System:     name,
				Bench:      inj.Point,
				Seed:       seed,
				Run: func() Result {
					start := time.Now()
					o := crash.RunInjection(t, inj)
					return Result{
						Experiment: "crash",
						System:     o.Workload,
						Bench:      Bench(o.Point),
						Seed:       o.Seed,
						Stats:      o.Stats,
						Elapsed:    o.Elapsed,
						Wall:       time.Since(start),
						Point:      o.Point,
						Visit:      o.Visit,
						Verdict:    o.Verdict,
						Shards:     shards,
					}
				},
			})
		}
	}
	results := harness.Execute(specs, opt.Par)
	return foldCrash(results), results, nil
}

// foldCrash tabulates injections and failures per point.
func foldCrash(rs []Result) *stats.Table {
	type agg struct{ n, fail int }
	per := map[string]*agg{}
	for _, r := range rs {
		a := per[r.Point]
		if a == nil {
			a = &agg{}
			per[r.Point] = a
		}
		a.n++
		if r.Verdict != "ok" {
			a.fail++
		}
	}
	points := make([]string, 0, len(per))
	for p := range per {
		points = append(points, p)
	}
	sort.Strings(points)
	tbl := &stats.Table{Header: []string{"Injection point", "Injections", "Failures"}}
	total, fails := 0, 0
	for _, p := range points {
		a := per[p]
		tbl.AddRow(p, fmt.Sprintf("%d", a.n), fmt.Sprintf("%d", a.fail))
		total += a.n
		fails += a.fail
	}
	tbl.AddRow("TOTAL", fmt.Sprintf("%d", total), fmt.Sprintf("%d", fails))
	return tbl
}

// CrashFailures counts results whose recovery verdict is not "ok".
func CrashFailures(rs []Result) int {
	n := 0
	for _, r := range rs {
		if r.Verdict != "ok" {
			n++
		}
	}
	return n
}
