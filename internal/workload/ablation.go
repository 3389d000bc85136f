package workload

import (
	"uhtm/internal/core"
	"uhtm/internal/harness"
	"uhtm/internal/signature"
	"uhtm/internal/stats"
)

// ablationPlan exercises the design choices DESIGN.md calls out, each as a
// paired run on the same workload:
//
//   - requester-wins/-loses (Table II) vs age-based resolution — the
//     livelock remedy the paper defers to future work;
//   - the DRAM cache of the [28] substrate vs direct NVM re-reads for
//     early-evicted persistent lines;
//   - signature isolation on vs off at a fixed signature size (the
//     optimization quantified standalone rather than via Fig. 6's grid);
//   - the undo-vs-redo DRAM logging choice at one footprint (Fig. 10's
//     mechanism in one row).
func ablationPlan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	type row struct{ name, variant, note string }
	var rows []row
	var specs []harness.Spec[Result]
	add := func(name, variant, note string, s SystemSpec, b Bench, cfg Config) {
		rows = append(rows, row{name, variant, note})
		specs = append(specs, spec("ablate", s, b, opt.seeded(cfg)))
	}

	// 1. Conflict resolution policy under contention: a hot-key PMDK
	// workload where requester policies can ping-pong.
	contended := pmdkConfig(100)
	contended.KeySpace = 64 // heavy same-key collisions
	contended.Prepopulate = 64
	contended.BatchesPerThread = scaleN(8, opt.Scale)
	base := UHTM(signature.Bits4K, true)
	add("resolution", "requester-wins/loses", "Table II", base, BenchBTree, contended)
	aged := base
	aged.Name = "4k_opt+aging"
	aged.Opts.Aging = true
	add("resolution", "age-based (youngest aborts)", "future-work remedy", aged, BenchBTree, contended)

	// 2. DRAM cache vs direct NVM for early-evicted lines: an
	// overflow-heavy durable workload re-reading its own spilled data.
	spill := pmdkConfig(300)
	spill.BatchesPerThread = scaleN(8, opt.Scale)
	add("dram-cache", "enabled ([28] substrate)", "early-evicted @ DRAM speed", base, BenchSkipList, spill)
	noCache := base
	noCache.Name = "4k_opt-nodram$"
	noCache.Opts.NoDRAMCache = true
	add("dram-cache", "disabled", "early-evicted @ NVM speed", noCache, BenchSkipList, spill)

	// 3. Signature isolation at fixed size (1k bits).
	iso := pmdkConfig(200)
	iso.BatchesPerThread = scaleN(8, opt.Scale)
	add("isolation", "off (1k_sig)", "cross-domain FPs", UHTM(signature.Bits1K, false), BenchBTree, iso)
	add("isolation", "on (1k_opt)", "domain-confined", UHTM(signature.Bits1K, true), BenchBTree, iso)

	// 4. DRAM logging for overflowed volatile lines at one footprint.
	vol := pmdkConfig(200)
	vol.Persistent = false
	vol.BatchesPerThread = scaleN(8, opt.Scale)
	undo := UHTM(signature.Bits4K, true)
	add("dram-log", "undo (eager)", "fast commit", undo, BenchRBTree, vol)
	redo := undo
	redo.Name = "4k_opt_redo"
	redo.Opts.DRAMLog = core.DRAMRedo
	add("dram-log", "redo (lazy)", "copy-back commit", redo, BenchRBTree, vol)

	fold := func(rs []Result) *stats.Table {
		tbl := &stats.Table{Header: []string{"ablation", "variant", "tx/s", "abort-rate", "note"}}
		for i, r := range rs {
			tbl.AddRow(rows[i].name, rows[i].variant, f2(r.Throughput()), pct(r.Stats.AbortRate()), rows[i].note)
		}
		return tbl
	}
	return specs, fold
}
