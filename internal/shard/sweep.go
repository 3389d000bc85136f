package shard

import (
	"fmt"

	"uhtm/internal/core"
	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/wal"
)

// SweepConfig is the cluster shape the cross-shard crash sweep runs:
// small enough for an exhaustive sweep over every 2PC injection point,
// with a shrunken cache hierarchy (conflicts and overflows within a
// handful of writes), commit tracking for the oracle, and Par 1.
func SweepConfig() Config {
	cfg := Config{
		Shards:        2,
		CoresPerShard: 2,
		Domains:       1,
		Rounds:        2,
		TxPerCore:     2,
		WritesPerTx:   2,
		ReadsPerTx:    1,
		CrossPerRound: 3,
		CrossShards:   2,
		LinesPerShard: 8,
		Seed:          42,
		Par:           1,
	}
	g := mem.DefaultConfig()
	g.L1Size = 8 * mem.LineSize
	g.L1Ways = 2
	g.LLCSize = 8 * mem.LineSize
	g.LLCWays = 4
	g.DRAMCacheSize = 64 * mem.LineSize
	g.DRAMCacheWays = 4
	cfg.Geom = &g
	opts := core.DefaultOptions()
	opts.TrackCommits = true
	cfg.Opts = opts
	return cfg
}

// SweepTarget is the cross-shard crash-sweep target (a crash.Target):
// a cluster of the given shape running its canned workload, with one
// injector hooked on every shard under shard-qualified point names
// ("s<k>.<point>", e.g. s1.shard.2pc.apply.mark). Recovery is
// RecoverServing; verification holds it to the driver's ground truth.
type SweepTarget Config

// Label implements crash.Target.
func (t SweepTarget) Label() (string, int64) {
	cfg := Config(t).normalized()
	return fmt.Sprintf("shard-%dx%d", cfg.Shards, cfg.CoresPerShard), cfg.Seed
}

// Start implements crash.Target: build the cluster, capture every
// shard's durable baseline, hook the injector, and run.
func (t SweepTarget) Start(in *crash.Injector) crash.Instance {
	cfg := Config(t)
	cfg.Par = 1 // every shard's hook shares one injector
	c := New(cfg)
	r := &sweepRun{c: c}
	for k, sh := range c.shards {
		r.baselines = append(r.baselines, crash.Baseline(sh.m))
		c.SetHook(k, in.HaltHook(fmt.Sprintf("s%d.", k), sh.eng))
	}
	r.res = c.Run()
	return r
}

// sweepRun is one SweepTarget instance: the cluster, its pre-run
// baselines, the run summary, and — once recovered — what recovery
// reported.
type sweepRun struct {
	c         *Cluster
	baselines []map[mem.Addr]mem.Line
	res       Result
	rec       Recovery
}

// Complete implements crash.Instance.
func (r *sweepRun) Complete() error {
	if r.res.Halted {
		return fmt.Errorf("halted unexpectedly")
	}
	return nil
}

// Counters implements crash.Instance.
func (r *sweepRun) Counters() (stats.Stats, sim.Time) { return r.res.Stats, r.res.Elapsed }

// Recover implements crash.Instance: whole-cluster power failure and
// RecoverServing, with the per-shard replay counts summed.
func (r *sweepRun) Recover() wal.ReplayStats {
	r.rec = r.c.RecoverServing()
	var out wal.ReplayStats
	for _, rs := range r.rec.PerShard {
		out.CommittedTx += rs.CommittedTx
		out.AppliedLines += rs.AppliedLines
		out.DiscardedTx += rs.DiscardedTx
		out.DiscardedRecs += rs.DiscardedRecs
		out.TornRecs += rs.TornRecs
		out.StaleTx += rs.StaleTx
		out.StaleRecs += rs.StaleRecs
	}
	return out
}

// Verify implements crash.Instance: the per-shard committed-prefix
// oracle plus cluster-wide 2PC atomicity against the driver's ground
// truth.
func (r *sweepRun) Verify() string {
	c := r.c
	// Per-shard committed-prefix equality. The mid-commit bound covers
	// one local transaction per core; the completion pass registers
	// every cross apply, so none counts as mid-commit.
	for i, sh := range c.shards {
		if d := crash.VerifyRecovered(sh.m, c.cfg.CoresPerShard, r.baselines[i]); d != "" {
			return fmt.Sprintf("shard %d: %s", i, d)
		}
	}
	// Cluster atomicity: a cross transaction is applied on all its
	// participants iff it was durably decided commit (or resolved at or
	// below the cell and admitted); never anywhere otherwise. Recovery
	// registers applies from the durable prepare images, so each
	// registration is also held to the images the driver issued.
	for _, tx := range c.waves {
		expect := r.rec.DecidedCommit[tx.seq] || (tx.seq <= r.rec.Cell && tx.admitted)
		for _, s := range tx.shards {
			ws := tx.writes[s]
			if len(ws) == 0 {
				continue
			}
			got, applied := commitWrites(c.shards[s], tx.gid)
			if expect && !applied {
				return fmt.Sprintf("cross tx %s missing on shard %d after recovery", tx, s)
			}
			if !expect && applied {
				return fmt.Sprintf("cross tx %s applied on shard %d without a durable commit decision", tx, s)
			}
			if !applied {
				continue
			}
			if len(got) != len(ws) {
				return fmt.Sprintf("cross tx %s on shard %d: %d lines applied, %d issued", tx, s, len(got), len(ws))
			}
			for _, w := range ws {
				if img, ok := got[w.addr]; !ok || img != w.img {
					return fmt.Sprintf("cross tx %s on shard %d line %#x: applied %x, issued %x", tx, s, uint64(w.addr), img, w.img)
				}
			}
		}
	}
	return ""
}
