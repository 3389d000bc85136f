package shard

import (
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// servingConfig is the cluster shape the serving-surface tests run:
// commit tracking on for the committed-prefix oracle, Par 1 so hooks
// stay race-free.
func servingConfig(shards int) Config {
	opts := core.DefaultOptions()
	opts.TrackCommits = true
	return Config{
		Shards:        shards,
		CoresPerShard: 2,
		Seed:          7,
		Par:           1,
		Opts:          opts,
	}
}

func TestShardOfDeterministicAndCovering(t *testing.T) {
	if got := ShardOf(12345, 1); got != 0 {
		t.Fatalf("ShardOf(_, 1) = %d, want 0", got)
	}
	if got := ShardOf(12345, 0); got != 0 {
		t.Fatalf("ShardOf(_, 0) = %d, want 0", got)
	}
	const n = 4
	seen := map[int]bool{}
	for k := uint64(1); k <= 1000; k++ {
		h := ShardOf(k, n)
		if h < 0 || h >= n {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", k, n, h)
		}
		if h != ShardOf(k, n) {
			t.Fatalf("ShardOf(%d, %d) not deterministic", k, n)
		}
		seen[h] = true
	}
	if len(seen) != n {
		t.Fatalf("keys 1..1000 landed on %d of %d shards", len(seen), n)
	}
}

func TestNewServingSingleShardHasNoCoordinator(t *testing.T) {
	c := NewServing(servingConfig(1))
	if c.decLog != nil {
		t.Fatalf("single-shard serving cluster built a decision log")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("SubmitCross on a single-shard cluster did not panic")
		}
	}()
	c.SubmitCross([]int{0}, func(int, *sim.Thread) []LineWrite { return nil }, nil)
}

// servingFixture builds an n-shard serving cluster with one allocated,
// persisted NVM data line per shard, returning the cluster, the line
// addresses, and per-shard durable baselines for the oracle.
func servingFixture(t *testing.T, n int) (*Cluster, []mem.Addr, []map[mem.Addr]mem.Line) {
	t.Helper()
	c := NewServing(servingConfig(n))
	las := make([]mem.Addr, n)
	baselines := make([]map[mem.Addr]mem.Line, n)
	for k, sh := range c.Shards() {
		al := mem.NewAllocator(mem.NVM)
		las[k] = al.AllocLines(1)
		sh.Machine().Store().WriteU64(las[k], 0xBA5E+uint64(k))
		sh.Machine().Store().PersistLiveNVM()
		baselines[k] = crash.Baseline(sh.Machine())
	}
	return c, las, baselines
}

// armShard arms an injector at point's first visit and hooks it on
// shard k, halting that shard's engine when it fires.
func armShard(c *Cluster, k int, point string) *crash.Injector {
	in := crash.Arm(crash.Injection{Point: point, Visit: 1})
	c.SetHook(k, in.HaltHook("", c.Shards()[k].Engine()))
	return in
}

// lineImg builds a full-line image of repeated b.
func lineImg(b byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = b
	}
	return l
}

func TestSubmitCrossCommitAppliesEverywhere(t *testing.T) {
	c, las, baselines := servingFixture(t, 2)
	imgs := []mem.Line{lineImg(0xA1), lineImg(0xB2)}
	appliedOn := map[int]bool{}
	decided, halted := c.SubmitCross([]int{0, 1},
		func(k int, th *sim.Thread) []LineWrite {
			return []LineWrite{{Addr: las[k], Img: imgs[k]}}
		},
		func(k int, th *sim.Thread) { appliedOn[k] = true })
	if !decided || halted {
		t.Fatalf("SubmitCross = (decided=%v, halted=%v), want (true, false)", decided, halted)
	}
	if c.CrossCommits() != 1 {
		t.Fatalf("CrossCommits = %d, want 1", c.CrossCommits())
	}
	for k, sh := range c.Shards() {
		if !appliedOn[k] {
			t.Errorf("applied callback never ran on shard %d", k)
		}
		if got := sh.Machine().Store().PeekLine(las[k]); got != imgs[k] {
			t.Errorf("shard %d live line = %x, want committed image", k, got)
		}
	}

	// Recovery after a clean commit is a no-op completion pass, and every
	// shard still satisfies the committed-prefix oracle.
	rec := c.RecoverServing()
	if rec.Completed != 0 || rec.Noted != 0 {
		t.Fatalf("clean commit needed completion work: completed=%d noted=%d", rec.Completed, rec.Noted)
	}
	if rec.Cell != 1 {
		t.Fatalf("resolution cell = %d, want 1", rec.Cell)
	}
	for k, sh := range c.Shards() {
		if d := crash.VerifyRecovered(sh.Machine(), 3, baselines[k]); d != "" {
			t.Errorf("shard %d: %s", k, d)
		}
	}
}

func TestSubmitCrossReadOnlySkipsProtocol(t *testing.T) {
	c, _, _ := servingFixture(t, 2)
	decided, halted := c.SubmitCross([]int{0, 1},
		func(int, *sim.Thread) []LineWrite { return nil },
		func(int, *sim.Thread) { t.Error("applied callback ran for a read-only transaction") })
	if decided || halted {
		t.Fatalf("read-only SubmitCross = (%v, %v), want (false, false)", decided, halted)
	}
	if c.CrossCommits() != 0 || c.decLog.Appends != 0 {
		t.Fatalf("read-only transaction reached the coordinator: commits=%d appends=%d",
			c.CrossCommits(), c.decLog.Appends)
	}
}

func TestSubmitCrossHaltBeforeDecisionVanishesEverywhere(t *testing.T) {
	c, las, baselines := servingFixture(t, 2)
	in := armShard(c, 1, PointPrepareLogged)

	imgs := []mem.Line{lineImg(0xC3), lineImg(0xD4)}
	decided, halted := c.SubmitCross([]int{0, 1},
		func(k int, th *sim.Thread) []LineWrite {
			return []LineWrite{{Addr: las[k], Img: imgs[k]}}
		}, nil)
	if decided || !halted {
		t.Fatalf("SubmitCross = (%v, %v), want (false, true)", decided, halted)
	}
	if !in.Fired() {
		t.Fatalf("injection never fired")
	}
	in.Disarm()

	rec := c.RecoverServing()
	if len(rec.DecidedCommit) != 0 {
		t.Fatalf("undecided transaction has a durable commit decision: %v", rec.DecidedCommit)
	}
	if rec.Completed != 0 || rec.Noted != 0 {
		t.Fatalf("undecided transaction was completed: completed=%d noted=%d", rec.Completed, rec.Noted)
	}
	for k, sh := range c.Shards() {
		if d := crash.VerifyRecovered(sh.Machine(), 3, baselines[k]); d != "" {
			t.Errorf("shard %d: %s", k, d)
		}
		if got := sh.Machine().Store().PeekLine(las[k]); got == imgs[k] {
			t.Errorf("shard %d applied an undecided transaction", k)
		}
	}
}

func TestSubmitCrossHaltAfterDecisionCompletesEverywhere(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shard int
		point string
	}{
		// Halt the coordinator right after the decision record: no shard
		// has applied yet, recovery must finish both from prepare images.
		{"at-decision", 0, PointDecisionLogged},
		// Halt one participant before its apply mark: the other applied
		// fully, recovery must finish the straggler.
		{"mid-apply", 1, PointApplyMark},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, las, baselines := servingFixture(t, 2)
			in := armShard(c, tc.shard, tc.point)

			imgs := []mem.Line{lineImg(0xE5), lineImg(0xF6)}
			_, halted := c.SubmitCross([]int{0, 1},
				func(k int, th *sim.Thread) []LineWrite {
					return []LineWrite{{Addr: las[k], Img: imgs[k]}}
				}, nil)
			if !halted {
				t.Fatalf("injected halt did not surface")
			}
			if !in.Fired() {
				t.Fatalf("injection never fired")
			}
			in.Disarm()

			rec := c.RecoverServing()
			if !rec.DecidedCommit[1] {
				t.Fatalf("durable commit decision missing: %v", rec.DecidedCommit)
			}
			if rec.Completed+rec.Noted == 0 {
				t.Fatalf("completion pass did nothing for a decided transaction")
			}
			for k, sh := range c.Shards() {
				if d := crash.VerifyRecovered(sh.Machine(), 3, baselines[k]); d != "" {
					t.Errorf("shard %d: %s", k, d)
				}
				if got := sh.Machine().Store().PeekLine(las[k]); got != imgs[k] {
					t.Errorf("shard %d: decided transaction not applied after recovery (line=%x)", k, got)
				}
				if !inCommitLog(sh, GIDBase|1) {
					t.Errorf("shard %d: decided transaction not registered in the commit log", k)
				}
			}

			// The cluster serves again after recovery: a fresh cross
			// transaction on restarted sessions commits cleanly.
			for _, sh := range c.Shards() {
				sh.Restart()
			}
			imgs2 := []mem.Line{lineImg(0x11), lineImg(0x22)}
			decided, halted := c.SubmitCross([]int{0, 1},
				func(k int, th *sim.Thread) []LineWrite {
					return []LineWrite{{Addr: las[k], Img: imgs2[k]}}
				}, nil)
			if !decided || halted {
				t.Fatalf("post-recovery SubmitCross = (%v, %v), want (true, false)", decided, halted)
			}
		})
	}
}
