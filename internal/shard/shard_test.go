package shard

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// run executes a fresh sweep-shaped cluster at the given parallelism,
// with tracing on, and returns it plus its result.
func runSweepCluster(t *testing.T, par int) (*Cluster, Result) {
	t.Helper()
	cfg := SweepConfig()
	cfg.Par = par
	cfg.Trace = true
	c := New(cfg)
	res := c.Run()
	if res.Halted {
		t.Fatalf("uninjected run halted")
	}
	return c, res
}

func TestClusterRunsAndCommitsCrossTxs(t *testing.T) {
	cfg := SweepConfig()
	_, res := runSweepCluster(t, 1)
	// The count is a pure function of the configuration: a change that
	// admits or commits more or fewer cross-shard transactions moves it.
	if res.CrossCommits != 4 {
		t.Fatalf("cross-shard commits = %d, want 4 (aborts=%d)", res.CrossCommits, res.CrossAborts)
	}
	a := testing.AllocsPerRun(5, func() { New(untracedSweepConfig()).Run() })
	if a > shardCrossAllocCeiling {
		t.Errorf("building and running the cluster allocates %v times, want <= %d", a, shardCrossAllocCeiling)
	}
	if res.CrossAborts == 0 {
		t.Fatalf("no cross-shard conflict aborts — wave admission untested (commits=%d)", res.CrossCommits)
	}
	if got, want := res.CrossCommits+res.CrossAborts, uint64(cfg.Rounds*cfg.CrossPerRound); got != want {
		t.Fatalf("decided %d cross txs, want %d", got, want)
	}
	wantLocal := uint64(cfg.Shards * cfg.CoresPerShard * cfg.Rounds * cfg.TxPerCore)
	if res.Stats.Commits != wantLocal {
		t.Fatalf("local commits = %d, want %d", res.Stats.Commits, wantLocal)
	}
}

func TestSingleShardHasNoCrossTraffic(t *testing.T) {
	cfg := SweepConfig()
	cfg.Shards = 1
	c := New(cfg)
	res := c.Run()
	if res.Halted {
		t.Fatalf("run halted")
	}
	if res.CrossCommits != 0 || res.CrossAborts != 0 {
		t.Fatalf("single-shard cluster ran cross txs: commits=%d aborts=%d", res.CrossCommits, res.CrossAborts)
	}
	if res.Stats.Commits == 0 {
		t.Fatalf("no local commits")
	}
	if c.decLog.Appends != 0 {
		t.Fatalf("decision log saw %d appends in a single-shard run", c.decLog.Appends)
	}
}

// TestMergedTraceDeterministicAcrossPar is the merged-trace determinism
// gate: the virtual-time-merged Chrome trace of a sharded run must be
// byte-identical at any OS-thread parallelism.
func TestMergedTraceDeterministicAcrossPar(t *testing.T) {
	c1, res1 := runSweepCluster(t, 1)
	c8, res8 := runSweepCluster(t, 8)

	if res1 != res8 {
		t.Fatalf("results differ across par:\n par1: %+v\n par8: %+v", res1, res8)
	}
	ev1, ev8 := c1.MergedTrace(), c8.MergedTrace()
	if len(ev1) == 0 {
		t.Fatalf("merged trace is empty")
	}
	var b1, b8 bytes.Buffer
	cause := func(c uint64) string { return stats.AbortCause(c).String() }
	if err := trace.WriteChrome(&b1, []trace.Run{{Label: "shard", Events: ev1}}, cause); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&b8, []trace.Run{{Label: "shard", Events: ev8}}, cause); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("merged Chrome trace differs between par=1 (%d bytes) and par=8 (%d bytes)", b1.Len(), b8.Len())
	}
}

// TestMergedTraceRemapsIdentities checks the merge's core and
// transaction remapping: global core IDs span every shard and local
// transaction IDs from different shards never collide.
func TestMergedTraceRemapsIdentities(t *testing.T) {
	c, _ := runSweepCluster(t, 1)
	cfg := c.cfg
	coresSeen := map[int32]bool{}
	txShards := map[uint64]map[int]bool{} // remapped local tx → shards claiming it
	for _, ev := range c.MergedTrace() {
		if ev.Core >= 0 {
			if int(ev.Core) >= cfg.Shards*cfg.CoresPerShard {
				t.Fatalf("core %d out of global range", ev.Core)
			}
			coresSeen[ev.Core] = true
		}
		if ev.TxID != 0 && ev.TxID < GIDBase {
			k := int(ev.TxID >> txOffsetShift)
			if txShards[ev.TxID] == nil {
				txShards[ev.TxID] = map[int]bool{}
			}
			txShards[ev.TxID][k] = true
		}
	}
	if len(coresSeen) != cfg.Shards*cfg.CoresPerShard {
		t.Fatalf("saw %d distinct cores, want %d", len(coresSeen), cfg.Shards*cfg.CoresPerShard)
	}
	for id, shards := range txShards {
		if len(shards) != 1 {
			t.Fatalf("remapped local tx %#x claimed by %d shards", id, len(shards))
		}
	}
}

func TestEnumerateFindsTwoPCPoints(t *testing.T) {
	injs, hits, err := crash.Enumerate(SweepTarget(SweepConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		PointPrepareLogged, PointDecisionLogged, PointApplyMark, PointApplyLine, PointResolveCkpt,
		PointPrefixDecision + "append.record",
		PointPrefixDecision + "append.ctrl",
		PointPrefixDecision + "reclaim.ctrl",
	} {
		found := false
		for p := range hits {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no injection point matching %q enumerated", want)
		}
	}
	if len(injs) == 0 {
		t.Fatalf("no injections enumerated")
	}
}

// TestCrashSweepTwoPCPoints injects a crash at every (point, visit) of
// every 2PC protocol step — the shard.* namespace — and verifies
// recovery with the committed-prefix oracle plus cluster atomicity. Most
// points strike with prepare records still on a redo ring, so the
// cluster's summed replay counts must report scanned slots.
func TestCrashSweepTwoPCPoints(t *testing.T) {
	target := SweepTarget(SweepConfig())
	injs, _, err := crash.Enumerate(target)
	if err != nil {
		t.Fatal(err)
	}
	ran, scanned := 0, 0
	for _, inj := range injs {
		if !strings.Contains(inj.Point, "shard.") {
			continue
		}
		out := crash.RunInjection(target, inj)
		if out.Verdict != "ok" {
			t.Errorf("%s visit %d: %s", out.Point, out.Visit, out.Verdict)
		}
		scanned += out.Replay.ScannedRecs
		ran++
	}
	if ran == 0 {
		t.Fatalf("no shard.* injections found")
	}
	if scanned == 0 {
		t.Errorf("%d recoveries report 0 scanned records in all", ran)
	}
	t.Logf("swept %d 2PC injection points", ran)
}

// TestCrashSweepSampledMachinePoints samples the non-2PC points (the
// underlying core.*/wal.*/mem.* protocol steps running inside a sharded
// cluster) and verifies the same invariants there.
func TestCrashSweepSampledMachinePoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled sweep is slow")
	}
	target := SweepTarget(SweepConfig())
	injs, _, err := crash.Enumerate(target)
	if err != nil {
		t.Fatal(err)
	}
	var rest []crash.Injection
	for _, inj := range injs {
		if !strings.Contains(inj.Point, "shard.") {
			rest = append(rest, inj)
		}
	}
	for _, inj := range crash.Sample(rest, 32, target.Seed) {
		if out := crash.RunInjection(target, inj); out.Verdict != "ok" {
			t.Errorf("%s visit %d: %s", out.Point, out.Visit, out.Verdict)
		}
	}
}

// TestRecoverAfterCleanRun checks recovery idempotence with no crash at
// all: every decided transaction is already resolved, so the completion
// pass has nothing to do.
func TestRecoverAfterCleanRun(t *testing.T) {
	c, res := runSweepCluster(t, 1)
	rec := c.RecoverServing()
	if rec.Completed != 0 || rec.Noted != 0 {
		t.Fatalf("clean run needed completion work: completed=%d noted=%d", rec.Completed, rec.Noted)
	}
	if rec.Cell == 0 || rec.Cell != res.CrossCommits+res.CrossAborts {
		t.Fatalf("cell = %d, want %d", rec.Cell, res.CrossCommits+res.CrossAborts)
	}
}

// recoveredSweep runs the sweep cluster to a halt after the first
// durable commit decision — no participant has applied yet, so recovery
// completes the transaction everywhere — recovers it, and checks that
// the untampered result verifies clean.
func recoveredSweep(t *testing.T) *sweepRun {
	t.Helper()
	in := crash.Arm(crash.Injection{Point: "s0." + PointDecisionLogged, Visit: 1})
	r := SweepTarget(SweepConfig()).Start(in).(*sweepRun)
	if !in.Fired() {
		t.Fatal("injection never fired")
	}
	r.Recover()
	if r.rec.Completed == 0 {
		t.Fatal("recovery completed no cross apply")
	}
	if d := r.Verify(); d != "" {
		t.Fatalf("clean recovery failed verification: %s", d)
	}
	return r
}

// TestSweepVerifyCatchesCorruptedLine: one corrupted recovered durable
// data line fails the per-shard committed-prefix oracle.
func TestSweepVerifyCatchesCorruptedLine(t *testing.T) {
	r := recoveredSweep(t)
	st := r.c.shards[1].m.Store()
	la := r.c.shards[1].pool[0]
	ln := st.PeekLine(la)
	ln[0] ^= 0xFF
	st.WriteLine(la, &ln)
	st.PersistLine(la, &ln)
	if d := r.Verify(); !strings.HasPrefix(d, "shard 1: line ") {
		t.Errorf("corrupted line verified as %q, want a shard 1 line mismatch", d)
	}
}

// TestSweepVerifyCatchesDroppedCrossApply: a decided cross transaction
// missing from one participant's commit log — a completion pass that
// skipped that shard — fails cluster atomicity even though the shard's
// own committed-prefix check still holds.
func TestSweepVerifyCatchesDroppedCrossApply(t *testing.T) {
	r := recoveredSweep(t)
	tx := completedCrossTx(t, r)
	s := tx.shards[0]
	// Rename the registration in place (CommitLog aliases the machine's
	// log): the images stay, the apply is gone from this shard.
	dropped := false
	for i, ce := range r.c.shards[s].m.CommitLog() {
		if ce.ID == tx.gid {
			r.c.shards[s].m.CommitLog()[i].ID = 0
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("cross tx %s not registered on shard %d", tx, s)
	}
	want := fmt.Sprintf("cross tx %s missing on shard %d after recovery", tx, s)
	if d := r.Verify(); d != want {
		t.Errorf("dropped apply verified as %q, want %q", d, want)
	}
}

// completedCrossTx returns a cross transaction that recovery completed:
// decided commit, above the resolution cell.
func completedCrossTx(t *testing.T, r *sweepRun) *crossTx {
	t.Helper()
	for _, tx := range r.c.waves {
		if r.rec.DecidedCommit[tx.seq] && tx.seq > r.rec.Cell && len(tx.writes[tx.shards[0]]) > 0 {
			return tx
		}
	}
	t.Fatal("no decided cross transaction above the resolution cell")
	return nil
}

// TestSweepVerifyCatchesWrongPrepareImage: recovery completes a decided
// transaction from its durable prepare images and registers those same
// images, so a prepare record that logged the wrong image passes every
// shard's committed-prefix check. Changing one image the driver issued
// models exactly that divergence; the ground-truth image check must
// fail it.
func TestSweepVerifyCatchesWrongPrepareImage(t *testing.T) {
	r := recoveredSweep(t)
	tx := completedCrossTx(t, r)
	s := tx.shards[0]
	w := &tx.writes[s][0]
	w.Img[0] ^= 0xFF
	want := fmt.Sprintf("cross tx %s on shard %d line %#x: applied ", tx, s, uint64(w.Addr))
	if d := r.Verify(); !strings.HasPrefix(d, want) {
		t.Errorf("wrong prepare image verified as %q, want prefix %q", d, want)
	}
}

// TestSweepUnknownPointOrShardNeverReached: injections naming a shard
// the cluster lacks, an unqualified point, or an unknown point are
// reported as never reached — never a panic, never a bogus pass.
func TestSweepUnknownPointOrShardNeverReached(t *testing.T) {
	for _, p := range []string{"s9." + PointApplyMark, PointApplyMark, "s0.no.such.point"} {
		o := crash.RunInjection(SweepTarget(SweepConfig()), crash.Injection{Point: p, Visit: 1})
		if want := "fail: point " + p + " visit 1 never reached"; !strings.HasPrefix(o.Verdict, want) {
			t.Errorf("%s: verdict = %q, want prefix %q", p, o.Verdict, want)
		}
	}
}

// TestRecoverServingIndependentOfPar: the shards crash and recover in
// parallel, so the same halted cluster must recover to the same result
// and the same memory images at any parallelism.
func TestRecoverServingIndependentOfPar(t *testing.T) {
	type outcome struct {
		rec              Recovery
		live, durable    []map[mem.Addr]mem.Line
		verdict          string
		applied, scanned int
	}
	recoverAt := func(par int) outcome {
		in := crash.Arm(crash.Injection{Point: "s0." + PointDecisionLogged, Visit: 1})
		r := SweepTarget(SweepConfig()).Start(in).(*sweepRun)
		if !in.Fired() {
			t.Fatal("injection never fired")
		}
		for k := range r.c.shards {
			r.c.SetHook(k, nil)
		}
		r.c.cfg.Par = par
		r.Recover()
		o := outcome{rec: r.rec, verdict: r.Verify()}
		for k, sh := range r.c.shards {
			o.live = append(o.live, sh.m.Store().SnapshotLive())
			o.durable = append(o.durable, sh.m.Store().SnapshotDurable())
			o.applied += o.rec.PerShard[k].AppliedLines
			o.scanned += o.rec.PerShard[k].ScannedRecs
			o.rec.PerShard[k].Wall = 0
		}
		return o
	}
	serial, parallel := recoverAt(1), recoverAt(4)
	if serial.verdict != "" || parallel.verdict != "" {
		t.Fatalf("verification: serial %q, parallel %q", serial.verdict, parallel.verdict)
	}
	if serial.rec.Completed == 0 || serial.applied == 0 {
		t.Fatalf("recovery did no work (completed %d, applied %d): the test checks nothing", serial.rec.Completed, serial.applied)
	}
	if !reflect.DeepEqual(serial.rec, parallel.rec) {
		t.Errorf("Recovery differs: serial applied %d scanned %d, parallel applied %d scanned %d",
			serial.applied, serial.scanned, parallel.applied, parallel.scanned)
	}
	if !reflect.DeepEqual(serial.live, parallel.live) || !reflect.DeepEqual(serial.durable, parallel.durable) {
		t.Error("recovered memory images differ between Par 1 and Par 4")
	}
}
