package workload

import (
	"fmt"
	"math"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// The recovery experiment grid: committed redo-log volume at crash time
// (transactions) × background checkpoint interval (commits between
// ReclaimLogs passes; 0 = no background reclamation, the whole log
// replays). Each cell runs the load, pulls the plug, recovers, and
// reports the measured recovery pass — the curve the checkpoint
// interval is meant to flatten.
// The intervals deliberately do not divide the transaction counts, so
// the crash lands mid-interval and recovery always has a residual log
// tail to replay — a crash exactly on a checkpoint boundary would make
// the frequent-checkpoint cells degenerately free.
var (
	recoveryLogTxs = []int{64, 256, 1024}
	recoveryCkpt   = []int{0, 48, 192}
)

// The recovery machine is deliberately small and conflict-free: four
// cores writing disjoint NVM lines. Contention is other experiments'
// subject; here every committed transaction must land in the log so the
// log-size axis means what it says.
const (
	recoveryCores       = 4
	recoveryWritesPerTx = 4
	recoveryPoolLines   = 16 // per-core private line pool, written cyclically
)

// recoveryPlan enumerates the recovery grid. Scale shrinks the
// transaction counts (the labels keep the full-scale axis value, like
// the scale experiment's core counts).
func recoveryPlan(opt RunOptions) ([]harness.Spec[Result], foldFunc) {
	seed := int64(42)
	if opt.Seed != nil {
		seed = *opt.Seed
	}
	var specs []harness.Spec[Result]
	for _, logTxs := range recoveryLogTxs {
		n := int(math.Ceil(float64(logTxs) * opt.Scale))
		if n < recoveryCores {
			n = recoveryCores
		}
		for _, every := range recoveryCkpt {
			// The interval scales with the transaction counts so reduced
			// runs keep the same checkpoints-per-run shape (0 stays 0).
			e := int(math.Ceil(float64(every) * opt.Scale))
			if every > 0 && e < 1 {
				e = 1
			}
			specs = append(specs, recoverySpec(logTxs, n, every, e, seed, opt.Trace))
		}
	}
	return specs, foldRecovery
}

// recoverySpec builds one recovery-grid cell: commit txs transactions
// across the cores (checkpointing every ckptEvery commits when
// non-zero), crash, and time the recovery pass. Labels carry the
// full-scale axis values.
func recoverySpec(labelTxs, txs, labelEvery, ckptEvery int, seed int64, traced bool) harness.Spec[Result] {
	system := fmt.Sprintf("logtxs=%d", labelTxs)
	bench := Bench(fmt.Sprintf("ckpt=%d", labelEvery))
	return harness.Spec[Result]{
		Experiment: "recovery",
		System:     system,
		Bench:      string(bench),
		Seed:       seed,
		Run: func() Result {
			start := time.Now()
			eng := sim.NewEngine(seed)
			if traced {
				eng.SetTracer(trace.NewRecorder())
			}
			mc := mem.DefaultConfig()
			mc.Cores = recoveryCores
			m := core.NewMachine(eng, mc, core.DefaultOptions())

			al := mem.NewAllocator(mem.NVM)
			pools := make([]mem.Addr, recoveryCores)
			for i := range pools {
				pools[i] = al.AllocLines(recoveryPoolLines)
			}
			commits := 0
			for c := 0; c < recoveryCores; c++ {
				c := c
				per := txs / recoveryCores
				if c < txs%recoveryCores {
					per++
				}
				eng.Spawn(fmt.Sprintf("rec%d", c), func(th *sim.Thread) {
					ctx := m.NewCtx(th, 0)
					for k := 0; k < per; k++ {
						k := k
						ctx.Run(func(tx *core.Tx) {
							for w := 0; w < recoveryWritesPerTx; w++ {
								line := pools[c] + mem.Addr((k*recoveryWritesPerTx+w)%recoveryPoolLines)*mem.LineSize
								tx.WriteU64(line, uint64(c)<<32|uint64(k))
							}
						})
						commits++
						if ckptEvery > 0 && commits%ckptEvery == 0 {
							m.ReclaimLogs()
						}
					}
				})
			}
			eng.Run()

			m.Crash()
			rst := m.Recover()
			r := Result{
				Experiment:        "recovery",
				System:            system,
				Bench:             bench,
				Seed:              seed,
				Stats:             *m.Stats(),
				Elapsed:           eng.Now(),
				Wall:              time.Since(start),
				RecoveryScanned:   rst.ScannedRecs,
				RecoveryApplied:   rst.AppliedLines,
				RecoveryScanPS:    rst.ScanPS,
				RecoveryReplayPS:  rst.ReplayPS,
				RecoveryPersistPS: rst.PersistPS,
			}
			if traced {
				r.TraceEvents = m.TraceEvents()
			}
			return r
		},
	}
}

// RecoveryPS returns the modeled end-to-end recovery latency: log scan
// plus redo apply plus in-place persistence.
func (r Result) RecoveryPS() sim.Time {
	return r.RecoveryScanPS + r.RecoveryReplayPS + r.RecoveryPersistPS
}

// foldRecovery tabulates the recovery curves: one row per grid cell,
// with records examined vs applied and the modeled phase breakdown in
// nanoseconds. Reading a column downward at a fixed checkpoint interval
// gives recovery latency vs log size; reading a row group across gives
// the payoff of checkpointing more often.
func foldRecovery(rs []Result) *stats.Table {
	tbl := &stats.Table{Header: []string{
		"Cell", "Commits", "Scanned", "Applied", "ScanNS", "ReplayNS", "PersistNS", "RecoveryNS",
	}}
	ns := func(t sim.Time) string { return fmt.Sprintf("%.4g", float64(t)/1000) }
	for _, r := range rs {
		tbl.AddRow(
			r.System+" "+string(r.Bench),
			fmt.Sprintf("%d", r.Stats.Commits),
			fmt.Sprintf("%d", r.RecoveryScanned),
			fmt.Sprintf("%d", r.RecoveryApplied),
			ns(r.RecoveryScanPS),
			ns(r.RecoveryReplayPS),
			ns(r.RecoveryPersistPS),
			ns(r.RecoveryPS()),
		)
	}
	return tbl
}
