package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"uhtm/internal/stats"
)

// TestCrashSweepInjectionList pins the crash sweep's injection list at
// scale 0.05: the exhaustive small workload, the floored large-workload
// sample, and the cluster's exhaustive 2PC points plus its sample of
// machine points — every one recovering clean. A change to a sweep
// driver or target must not silently add or drop points. Every record
// is also compared with testdata/golden_crash.tsv (system, point,
// visit, verdict and a digest of the statistics and simulated time),
// written at Par 1 with -update, so the check at Par 2 also pins the
// sweep's independence from the worker count.
func TestCrashSweepInjectionList(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short mode")
	}
	par := 2
	if *updateGoldens {
		par = 1
	}
	_, rs, err := RunCrashSweep(RunOptions{Scale: 0.05, Par: par})
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]int{}
	twoPC := 0
	for _, r := range rs {
		per[r.System]++
		if r.System == "shard-2x2" && strings.Contains(r.Point, ".shard.") {
			twoPC++
		}
		if r.Verdict != "ok" {
			t.Errorf("%s %s visit %d: %s", r.System, r.Point, r.Visit, r.Verdict)
		}
	}
	want := map[string]int{"crash-small": 512, "crash-large": 5, "shard-2x2": 62}
	for sys, n := range want {
		if per[sys] != n {
			t.Errorf("%s: %d injections, want %d", sys, per[sys], n)
		}
	}
	if len(per) != len(want) {
		t.Errorf("injections by target = %v, want %v", per, want)
	}
	if twoPC != 58 {
		t.Errorf("shard-2x2: %d shard.* injections, want 58", twoPC)
	}
	if len(rs) != 579 {
		t.Errorf("%d injections in total, want 579", len(rs))
	}
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%s\t%s\n", r.System, r.Point, r.Visit, r.Verdict, crashDigest(t, r))
	}
	checkGolden(t, "golden_crash.tsv", b.Bytes())
}

// crashDigest hashes the deterministic outcome of one injection: the
// record's stats and sim_elapsed_ps fields.
func crashDigest(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Stats        stats.Stats `json:"stats"`
		SimElapsedPS int64       `json:"sim_elapsed_ps"`
	}{r.Stats, int64(r.Elapsed)})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
