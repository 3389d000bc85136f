package workload

import (
	"strings"
	"testing"
)

// TestCrashSweepInjectionList pins the crash sweep's injection list at
// scale 0.05: the exhaustive small workload, the floored large-workload
// sample, and the cluster's exhaustive 2PC points plus its sample of
// machine points — every one recovering clean. A change to a sweep
// driver or target must not silently add or drop points.
func TestCrashSweepInjectionList(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short mode")
	}
	_, rs, err := RunCrashSweep(RunOptions{Scale: 0.05, Par: 2})
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
}
