package workload

import (
	"fmt"

	"uhtm/internal/core"
	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/stats"
)

// Each experiment is expressed as a *plan*: a pure enumeration of the
// (system × benchmark × footprint × seed) grid into harness specs, plus
// a fold that rebuilds the figure's table from the results. Enumeration
// order is the fold's contract — the harness returns results in spec
// order no matter how many ran concurrently — so tables are identical
// at every parallelism level.

// scaleN shrinks a count by the experiment scale factor (minimum 1).
// scale=1 reproduces the full-size run; CI and -short runs pass less.
func scaleN(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ratio returns num/den, or 0 when den is not positive. Every fold that
// normalizes a throughput against a baseline uses it so a zero-throughput
// run (e.g. a scale so small no batch commits) folds to 0.00 instead of
// dividing by zero.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// pmdkConfig is the PMDK/Echo figure shape: each transaction is a
// single insert/update with a value of footprintKB ("with the value size
// of 100KB", Section VI-A), over a keyspace small enough to prepopulate
// but large enough that same-key collisions are rare.
func pmdkConfig(footprintKB int) Config {
	c := DefaultConfig()
	c.FootprintKB = footprintKB
	c.ValueSize = footprintKB << 10 // one put per transaction
	// Update-dominated (the tree is prepopulated; "insert/update"
	// benchmarks in steady state): structural rebalancing near the root
	// is rare, so aborts come from capacity and signatures, as in the
	// paper's decomposition.
	c.KeySpace = 16384
	c.Prepopulate = 16384
	c.PrepopValueSize = 64 // values grow to footprintKB on first update
	c.BatchesPerThread = 8
	return c
}

// fig2Plan reproduces Figure 2: throughput of the LLC-Bounded HTM against
// the Ideal unbounded HTM, 16 threads, 100 KB transactions, consolidated
// with memory-intensive applications. The paper reports slowdowns up to
// 6.2×.
func fig2Plan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	cfg := pmdkConfig(100)
	cfg.BatchesPerThread = scaleN(cfg.BatchesPerThread, opt.Scale)
	cfg = opt.seeded(cfg)
	systems := []SystemSpec{LLCBounded(), Ideal()}
	benches := append(PMDKBenches(), BenchEcho)

	var g grid
	for _, b := range benches {
		for _, s := range systems {
			g.add("fig2", s, b, cfg)
		}
	}
	fold := func(rs []Result) *stats.Table {
		tbl := &stats.Table{Header: []string{"benchmark", "LLC-Bounded tx/s", "Ideal tx/s", "Ideal/Bounded"}}
		for i, b := range benches {
			bounded, ideal := rs[2*i], rs[2*i+1]
			tbl.AddRow(string(b), f2(bounded.Throughput()), f2(ideal.Throughput()),
				f2(ratio(ideal.Throughput(), bounded.Throughput())))
		}
		return tbl
	}
	return g.specs, fold
}

// fig6Plan reproduces Figure 6: throughput of the PMDK benchmarks and Echo
// (100 KB durable transactions, NVM data only, consolidated with two
// memory-intensive apps), normalized to the LLC-Bounded baseline.
func fig6Plan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	cfg := pmdkConfig(100)
	cfg.BatchesPerThread = scaleN(cfg.BatchesPerThread, opt.Scale)
	cfg = opt.seeded(cfg)
	systems := Fig6Systems()
	benches := append(PMDKBenches(), BenchEcho)

	var g grid
	for _, b := range benches {
		for _, s := range systems {
			g.add("fig6", s, b, cfg)
		}
	}
	fold := func(rs []Result) *stats.Table {
		header := []string{"benchmark"}
		for _, s := range systems {
			header = append(header, s.Name)
		}
		tbl := &stats.Table{Header: header}
		i := 0
		for _, b := range benches {
			row := []string{string(b)}
			var base float64
			for range systems {
				r := rs[i]
				i++
				if len(row) == 1 {
					base = r.Throughput()
				}
				row = append(row, f2(ratio(r.Throughput(), base)))
			}
			tbl.AddRow(row...)
		}
		return tbl
	}
	return g.specs, fold
}

// fig7Plan reproduces Figure 7: abort rates of UHTM (decomposed into true
// conflicts, signature false positives and overflows) while sweeping
// transaction footprint (100–500 KB) and signature size (512/1k/4k bits,
// with and without the conflict-domain isolation), on the consolidated
// PMDK mix.
func fig7Plan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	footprints := []int{100, 200, 300, 400, 500}
	systems := Fig7Systems()

	var g grid
	for _, fp := range footprints {
		c := pmdkConfig(fp)
		c.BatchesPerThread = scaleN(c.BatchesPerThread, opt.Scale)
		c = opt.seeded(c)
		for _, s := range systems {
			g.add("fig7", s, BenchMixed, c)
		}
	}
	fold := func(rs []Result) *stats.Table {
		tbl := &stats.Table{Header: []string{"footprintKB", "system", "abort-rate", "true", "false-pos", "lock", "overflowedTx"}}
		i := 0
		for _, fp := range footprints {
			for _, s := range systems {
				r := rs[i]
				i++
				tbl.AddRow(fmt.Sprintf("%d", fp), s.Name,
					pct(r.Stats.AbortRate()),
					pct(r.Stats.CauseShare(stats.CauseTrueConflict)),
					pct(r.Stats.CauseShare(stats.CauseFalsePositive)),
					pct(r.Stats.CauseShare(stats.CauseLock)),
					fmt.Sprintf("%d", r.Stats.Overflows))
			}
		}
		return tbl
	}
	return g.specs, fold
}

// fig8Plan reproduces Figure 8: Echo throughput with 0.5 %–2 % long-running
// read-only transactions (multi-MB get batches) among single-put (1 KB)
// transactions, no memory-intensive apps. The paper reports UHTM at 4.2×
// the bounded system's throughput at 0.5 %.
func fig8Plan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	cfg := Config{
		Seed:               42,
		Instances:          1,
		ThreadsPerInstance: 16,
		ValueSize:          1024,
		FootprintKB:        1, // single 1 KB put per transaction
		BatchesPerThread:   scaleN(400, opt.Scale),
		KeySpace:           1 << 15,
		Prepopulate:        40960, // 40 MB of resident pairs to scan
		Persistent:         true,
		LongROBytes:        20 << 20, // within the paper's 8–32 MB band
	}
	cfg = opt.seeded(cfg)
	fracs := []struct {
		label string
		every int
	}{
		{"0.5%", 200},
		{"1.0%", 100},
		{"2.0%", 50},
	}
	if opt.Scale < 0.5 {
		// Reduced-scale runs: the sweep's cost is dominated by the
		// multi-MB read-only transactions, so shrink the thread count
		// and drop the middle fraction rather than the RO size (which
		// must exceed the LLC to mean anything).
		cfg.ThreadsPerInstance = 8
		fracs = []struct {
			label string
			every int
		}{{"0.5%", 200}, {"2.0%", 50}}
	}
	systems := []SystemSpec{LLCBounded(), UHTM(signature.Bits4K, true), Ideal()}

	var g grid
	for _, fr := range fracs {
		c := cfg
		c.LongROEvery = fr.every
		if c.BatchesPerThread < fr.every {
			// Preserve the RO fraction at reduced scales: every thread
			// must reach at least one read-only batch.
			c.BatchesPerThread = fr.every
		}
		for _, s := range systems {
			g.add("fig8", s, BenchEcho, c)
		}
	}
	fold := func(rs []Result) *stats.Table {
		tbl := &stats.Table{Header: []string{"long-RO fraction", "system", "tx/s", "vs LLC-Bounded"}}
		i := 0
		for _, fr := range fracs {
			var base float64
			for si, s := range systems {
				r := rs[i]
				i++
				if si == 0 {
					base = r.Throughput()
				}
				tbl.AddRow(fr.label, s.Name, f2(r.Throughput()), f2(ratio(r.Throughput(), base)))
			}
		}
		return tbl
	}
	return g.specs, fold
}

// fig9Plan enumerates one hybrid store across footprints and systems.
func fig9Plan(exp string, b Bench, footprints []int, opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	cfg := DefaultConfig()
	cfg.MemApps = 0 // "we did not run LLC-hungry applications"
	cfg.BatchesPerThread = scaleN(4, opt.Scale)
	cfg = opt.seeded(cfg)
	systems := Fig9Systems()

	var g grid
	for _, fp := range footprints {
		c := cfg
		c.FootprintKB = fp
		for _, s := range systems {
			g.add(exp, s, b, c)
		}
	}
	fold := func(rs []Result) *stats.Table {
		tbl := &stats.Table{Header: []string{"footprintKB", "system", "tx/s", "vs LLC-Bounded", "abort-rate"}}
		i := 0
		for _, fp := range footprints {
			var base float64
			for si, s := range systems {
				r := rs[i]
				i++
				if si == 0 {
					base = r.Throughput()
				}
				tbl.AddRow(fmt.Sprintf("%d", fp), s.Name, f2(r.Throughput()),
					f2(ratio(r.Throughput(), base)), pct(r.Stats.AbortRate()))
			}
		}
		return tbl
	}
	return g.specs, fold
}

// fig9aPlan reproduces Figure 9a: the Hybrid-Index key-value store (DRAM
// B-Tree + NVM HashMap in one transaction) across 600 KB–1.5 MB
// footprints and signature configurations.
func fig9aPlan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	return fig9Plan("fig9a", BenchHybridIndex, []int{600, 900, 1200, 1500}, opt)
}

// fig9bPlan reproduces Figure 9b: the Dual key-value store (foreground DRAM
// map + background NVM map via the cross-referencing log).
func fig9bPlan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	return fig9Plan("fig9b", BenchDual, []int{600, 900, 1200, 1500}, opt)
}

// fig10Plan reproduces Figure 10: volatile (all-DRAM) transactions, undo vs
// redo logging for LLC-overflowed DRAM lines, averaged over the 512/1k/
// 4k-bit isolated configurations, as footprint (and thus overflow rate)
// grows. The paper reports undo ahead by 7.5 % at 300 KB rising to
// 44.7 % at high overflow rates.
func fig10Plan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	footprints := []int{100, 200, 300, 400}
	sigs := []int{signature.Bits512, signature.Bits1K, signature.Bits4K}
	logKinds := []core.DRAMLogKind{core.DRAMUndo, core.DRAMRedo}

	var g grid
	for _, fp := range footprints {
		c := pmdkConfig(fp)
		c.Persistent = false // volatile transactions: all data in DRAM
		c.BatchesPerThread = scaleN(c.BatchesPerThread, opt.Scale)
		c = opt.seeded(c)
		for _, bits := range sigs {
			for _, logKind := range logKinds {
				s := UHTM(bits, true)
				s.Opts.DRAMLog = logKind
				s.Name = fmt.Sprintf("%s_%v", s.Name, logKind)
				g.add("fig10", s, BenchMixed, c)
			}
		}
	}
	fold := func(rs []Result) *stats.Table {
		tbl := &stats.Table{Header: []string{"footprintKB", "undo tx/s", "redo tx/s", "undo/redo", "overflowedTx"}}
		i := 0
		for _, fp := range footprints {
			var undoSum, redoSum float64
			var ovf uint64
			for range sigs {
				undoR, redoR := rs[i], rs[i+1]
				i += 2
				undoSum += undoR.Throughput()
				ovf += undoR.Stats.Overflows
				redoSum += redoR.Throughput()
			}
			undo, redo := undoSum/float64(len(sigs)), redoSum/float64(len(sigs))
			tbl.AddRow(fmt.Sprintf("%d", fp), f2(undo), f2(redo), f2(ratio(undo, redo)),
				fmt.Sprintf("%d", ovf))
		}
		return tbl
	}
	return g.specs, fold
}

// TableIII returns the simulation configuration table.
func TableIII() *stats.Table {
	mc := mem.DefaultConfig()
	tbl := &stats.Table{Header: []string{"parameter", "value"}}
	tbl.AddRow("Processor", fmt.Sprintf("%d-core, in-order (event-driven model)", mc.Cores))
	tbl.AddRow("L1 I/D Cache", fmt.Sprintf("Private %dKB, %d-way", mc.L1Size>>10, mc.L1Ways))
	tbl.AddRow("L1 Latency", mc.L1Latency.String())
	tbl.AddRow("L2 (LLC) Cache", fmt.Sprintf("Shared %dMB, %d-way", mc.LLCSize>>20, mc.LLCWays))
	tbl.AddRow("L2 Latency", mc.LLCLatency.String())
	tbl.AddRow("DRAM Latency", fmt.Sprintf("Read/Write = %s", mc.DRAMLatency))
	tbl.AddRow("NVM Latency", fmt.Sprintf("Read = %s, Write = %s", mc.NVMReadLatency, mc.NVMWriteLatency))
	tbl.AddRow("DRAM cache", fmt.Sprintf("%dMB, %d-way (substrate [28])", mc.DRAMCacheSize>>20, mc.DRAMCacheWays))
	return tbl
}
