package shard

import (
	"fmt"
	"slices"
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
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

// TestSubmitCrossCommitAppliesEverywhere commits one written
// transaction over every shard; with one shard it shows a single-shard
// serving cluster builds the coordinator and commits through it.
func TestSubmitCrossCommitAppliesEverywhere(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c, las, baselines := servingFixture(t, n)
			imgs := []mem.Line{lineImg(0xA1), lineImg(0xB2)}
			appliedOn := map[int]bool{}
			decided, halted := c.SubmitCross([]int{0, 1}[:n],
				func(k int, th *sim.Thread) []LineWrite {
					return []LineWrite{{Addr: las[k], Img: imgs[k]}}
				},
				func(k int, th *sim.Thread) { appliedOn[k] = true })
			if !decided || halted {
				t.Fatalf("SubmitCross = (decided=%v, halted=%v), want (true, false)", decided, halted)
			}
			if c.CrossCommits() != 1 || c.decLog.Appends != 1 {
				t.Fatalf("CrossCommits = %d, decision appends = %d, want 1 and 1", c.CrossCommits(), c.decLog.Appends)
			}
			for k, sh := range c.Shards() {
				if !appliedOn[k] {
					t.Errorf("applied callback never ran on shard %d", k)
				}
				if got := sh.Machine().Store().PeekLine(las[k]); got != imgs[k] {
					t.Errorf("shard %d live line = %x, want committed image", k, got)
				}
			}

			// Recovery after a clean commit is a no-op completion pass, and
			// every shard still satisfies the committed-prefix oracle.
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
		})
	}
}

// TestSubmitCrossVirtualTime pins the serving 2PC's virtual-time charges
// and decision-log traffic on a 3-shard cluster. exec charges 30ns per
// shard index plus one; each record costs 5ns to prepare, a hop 200ns, a
// decision 10ns, an applied line 8ns and the resolution cell 10ns. A
// read-only participant gets no apply session and a read-only
// transaction never reaches the coordinator, so their clocks stop after
// prepare.
func TestSubmitCrossVirtualTime(t *testing.T) {
	const ns = sim.Nanosecond
	c, las, _ := servingFixture(t, 3)
	for i, step := range []struct {
		parts, writers []int
		decided        bool
		now            [3]sim.Time
		appends        uint64
	}{
		// Writers 0 and 2: decide at max(40, 100)+200+10 = 310, apply
		// on both at 310+200+8 = 518, resolve on shard 0 to 528.
		{[]int{0, 2}, []int{0, 2}, true, [3]sim.Time{528 * ns, 0, 518 * ns}, 1},
		// Writer 1, read-only 2: decide at max(528, 70, 608)+210 = 818,
		// apply on shard 1 only at 818+208 = 1026; shard 2 stays at 608.
		{[]int{1, 2}, []int{1}, true, [3]sim.Time{828 * ns, 1026 * ns, 608 * ns}, 2},
		// Read-only: prepare only.
		{[]int{0, 1}, nil, false, [3]sim.Time{858 * ns, 1086 * ns, 608 * ns}, 2},
	} {
		decided, halted := c.SubmitCross(step.parts, func(k int, th *sim.Thread) []LineWrite {
			th.Advance(sim.Time(30*(k+1)) * ns)
			if !slices.Contains(step.writers, k) {
				return nil
			}
			return []LineWrite{{Addr: las[k], Img: lineImg(byte(0x10*(i+1) + k))}}
		}, nil)
		if decided != step.decided || halted {
			t.Fatalf("step %d: SubmitCross = (%v, %v), want (%v, false)", i, decided, halted, step.decided)
		}
		var now [3]sim.Time
		for k, sh := range c.Shards() {
			now[k] = sh.Engine().Now()
		}
		if now != step.now || c.decLog.Appends != step.appends {
			t.Fatalf("step %d: clocks %v, decision appends %d; want %v, %d", i, now, c.decLog.Appends, step.now, step.appends)
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

// TestRecoveryForgetsOrphanDecision: a power failure after a commit
// decision's bytes reach NVM but before the decision log's control
// block advances leaves the decision outside the durable window, so
// recovery drops the undecided transaction everywhere. Recovery must
// also reset the decision log's head register: otherwise the next
// transaction's decision publishes the orphan, and a second recovery
// decides and applies the transaction the first one dropped.
func TestRecoveryForgetsOrphanDecision(t *testing.T) {
	c, las, baselines := servingFixture(t, 2)
	in := armShard(c, 0, PointPrefixDecision+wal.PointAppendCtrl)
	imgs := []mem.Line{lineImg(0x31), lineImg(0x42)}
	if _, halted := c.SubmitCross([]int{0, 1}, func(k int, th *sim.Thread) []LineWrite {
		return []LineWrite{{Addr: las[k], Img: imgs[k]}}
	}, nil); !halted || !in.Fired() {
		t.Fatalf("crash at the decision's control-block update never fired (halted=%v)", halted)
	}
	in.Disarm()
	if rec := c.RecoverServing(); rec.DecidedCommit[1] {
		t.Fatalf("recovery 1: orphan decision counted as durable: %v", rec.DecidedCommit)
	}

	// Seq 2 writes a second line per shard and halts before one apply
	// mark, so recovery 2 has a decided transaction to complete.
	for _, sh := range c.Shards() {
		sh.Restart()
	}
	in = armShard(c, 1, PointApplyMark)
	imgs2 := []mem.Line{lineImg(0x53), lineImg(0x64)}
	if _, halted := c.SubmitCross([]int{0, 1}, func(k int, th *sim.Thread) []LineWrite {
		return []LineWrite{{Addr: las[k] + mem.LineSize, Img: imgs2[k]}}
	}, nil); !halted || !in.Fired() {
		t.Fatalf("halt before the apply mark never fired (halted=%v)", halted)
	}
	in.Disarm()
	rec := c.RecoverServing()
	if rec.DecidedCommit[1] || !rec.DecidedCommit[2] {
		t.Fatalf("recovery 2: DecidedCommit = %v, want seq 2 only", rec.DecidedCommit)
	}
	for k, sh := range c.Shards() {
		if inCommitLog(sh, GIDBase|1) {
			t.Errorf("shard %d: recovery 2 applied seq 1", k)
		}
		if got := sh.Machine().Store().ReadU64(las[k]); got != 0xBA5E+uint64(k) {
			t.Errorf("shard %d: seq 1's line = %#x, want the baseline %#x", k, got, 0xBA5E+uint64(k))
		}
		if got := sh.Machine().Store().PeekLine(las[k] + mem.LineSize); got != imgs2[k] {
			t.Errorf("shard %d: seq 2 not completed (line=%x)", k, got)
		}
		if d := crash.VerifyRecovered(sh.Machine(), 3, baselines[k]); d != "" {
			t.Errorf("shard %d: %s", k, d)
		}
	}
}
