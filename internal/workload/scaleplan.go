package workload

import (
	"fmt"
	"math"
	"time"

	"uhtm/internal/harness"
	"uhtm/internal/shard"
	"uhtm/internal/stats"
)

// The scale experiment grid: total simulated cores × shard counts ×
// conflict-domain counts per shard. Shard counts that exceed the core
// count are skipped; RunOptions.Shards restricts the shard axis.
var (
	scaleCores   = []int{64, 256, 1024}
	scaleShards  = []int{1, 4, 16, 64}
	scaleDomains = []int{1, 4}
)

// scaleConfig maps one grid cell to a cluster configuration. Work is
// sized per core (so total work is constant across the shard axis and
// elapsed time measures scaling), the line pool is sized per core (so
// per-shard contention stays comparable), and cross-shard traffic grows
// with the cluster.
func scaleConfig(cores, shards, domains int, opt RunOptions) shard.Config {
	sc := func(n int) int {
		v := int(math.Ceil(float64(n) * opt.Scale))
		if v < 1 {
			v = 1
		}
		return v
	}
	cfg := shard.Config{
		Shards:        shards,
		CoresPerShard: cores / shards,
		Domains:       domains,
		Rounds:        3,
		TxPerCore:     sc(4),
		WritesPerTx:   4,
		ReadsPerTx:    2,
		CrossPerRound: sc(cores / 8),
		LinesPerShard: 64 * (cores / shards),
		Seed:          42,
		Par:           opt.Par,
		Trace:         opt.Trace,
		Opts:          baseOpts(),
	}
	if opt.Seed != nil {
		cfg.Seed = *opt.Seed
	}
	return cfg
}

// scalePlan enumerates the scale grid. Each cell is one sharded cluster
// run; the fold reports throughput, speedup over the cell's one-shard
// baseline, abort rate and cross-shard commit fraction — the scaling
// curves of the sharded evaluation.
func scalePlan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	var specs []harness.Spec[Result]
	for _, cores := range scaleCores {
		for _, shards := range scaleShards {
			if shards > cores {
				continue
			}
			if opt.Shards > 0 && shards != opt.Shards && shards != 1 {
				// Keep the one-shard cell so the fold can still compute
				// speedup against it.
				continue
			}
			for _, dom := range scaleDomains {
				specs = append(specs, scaleSpec(cores, shards, dom, scaleConfig(cores, shards, dom, opt)))
			}
		}
	}
	return specs, foldScale
}

// scaleSpec builds the harness spec for one scale-grid cell.
func scaleSpec(cores, shards, dom int, cfg shard.Config) harness.Spec[Result] {
	system := fmt.Sprintf("cores=%d", cores)
	bench := Bench(fmt.Sprintf("domains=%d", dom))
	return harness.Spec[Result]{
		Experiment: "scale",
		System:     system,
		Bench:      string(bench),
		Seed:       cfg.Seed,
		Run: func() Result {
			start := time.Now()
			c := shard.New(cfg)
			res := c.Run()
			r := Result{
				Experiment:   "scale",
				System:       system,
				Bench:        bench,
				Seed:         cfg.Seed,
				Stats:        res.Stats,
				Elapsed:      res.Elapsed,
				Wall:         time.Since(start),
				Shards:       shards,
				CrossCommits: res.CrossCommits,
				CrossAborts:  res.CrossAborts,
			}
			if cfg.Trace {
				r.TraceEvents = c.MergedTrace()
			}
			return r
		},
	}
}

// TotalThroughput returns committed transactions — local plus
// cross-shard — per simulated second.
func (r Result) TotalThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Commits+r.CrossCommits) / r.Elapsed.Seconds()
}

// CrossFraction returns the cross-shard share of committed
// transactions.
func (r Result) CrossFraction() float64 {
	total := r.Stats.Commits + r.CrossCommits
	if total == 0 {
		return 0
	}
	return float64(r.CrossCommits) / float64(total)
}

// foldScale tabulates the scaling curves: one row per grid cell, with
// speedup computed against the one-shard cell of the same (cores,
// domains) pair.
func foldScale(rs []Result) *stats.Table {
	base := map[string]float64{} // "system/bench" → 1-shard total throughput
	for _, r := range rs {
		if r.Shards == 1 {
			base[r.System+"/"+string(r.Bench)] = r.TotalThroughput()
		}
	}
	tbl := &stats.Table{Header: []string{
		"Cell", "Shards", "Commits", "Cross", "CrossAborts", "Tx/s", "Speedup", "AbortRate", "CrossFrac",
	}}
	for _, r := range rs {
		speedup := "-"
		if b := base[r.System+"/"+string(r.Bench)]; b > 0 {
			speedup = fmt.Sprintf("%.2fx", r.TotalThroughput()/b)
		}
		tbl.AddRow(
			r.System+" "+string(r.Bench),
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Stats.Commits),
			fmt.Sprintf("%d", r.CrossCommits),
			fmt.Sprintf("%d", r.CrossAborts),
			fmt.Sprintf("%.3g", r.TotalThroughput()),
			speedup,
			fmt.Sprintf("%.1f%%", 100*r.Stats.AbortRate()),
			fmt.Sprintf("%.1f%%", 100*r.CrossFraction()),
		)
	}
	return tbl
}
