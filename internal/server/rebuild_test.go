package server

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"uhtm/internal/sim"
)

// runStep runs ops as one request straight through the engine loop's
// step, on the calling goroutine, and returns its results.
func runStep(t *testing.T, s *Server, ops ...Op) []OpResult {
	t.Helper()
	req := s.route(ops)
	req.done = make(chan struct{})
	for q := []*request{req}; len(q) > 0; {
		q = s.step(q)
	}
	if req.err != nil {
		t.Fatalf("%v: %v", ops[0].Kind, req.err)
	}
	return req.results
}

// TestCrashRebuildKeepsScansAndSplitsNothing crashes a prepopulated
// 4-shard server and runs a seeded request script after recovery. The
// rebuilt indexes serve the same full-range SCAN, through the
// broadcast merge, as the indexes the prepopulation built, and no PUT
// of an existing key splits an index node: the rebuild leaves no node
// full, so the indexes' DRAM allocators hand out nothing.
func TestCrashRebuildKeepsScansAndSplitsNothing(t *testing.T) {
	const keys = 4096
	s := New(Config{Shards: 4, Cores: 2, Buckets: 1024, Prepopulate: keys})
	defer s.Close()

	full := Op{Kind: OpScan, Key: 0, N: keys + 1}
	before := runStep(t, s, full)[0]
	if len(before.Keys) != keys {
		t.Fatalf("SCAN before the CRASH returned %d keys, want %d", len(before.Keys), keys)
	}
	s.step([]*request{{kind: reqCrash, done: make(chan struct{})}})
	after := runStep(t, s, full)[0]
	if !slices.Equal(after.Keys, before.Keys) || !slices.EqualFunc(after.Vals, before.Vals, bytes.Equal) {
		t.Fatalf("SCAN after the CRASH differs: %d keys, before %d", len(after.Keys), len(before.Keys))
	}

	used := make([]uint64, len(s.stores))
	start := make([]sim.Time, len(s.shards))
	for i, st := range s.stores {
		used[i] = uint64(st.part.Index.Allocator().Used())
		start[i] = s.shards[i].Engine().Now()
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 600; i++ {
		k := uint64(rng.Intn(keys)) + 1
		if rng.Intn(5) == 0 {
			runStep(t, s, Op{Kind: OpGet, Key: k})
			continue
		}
		runStep(t, s, Op{Kind: OpPut, Key: k, Val: bytes.Repeat([]byte{byte(i)}, 16+rng.Intn(200))})
	}
	var served sim.Time
	for i, st := range s.stores {
		if got := uint64(st.part.Index.Allocator().Used()); got != used[i] {
			t.Errorf("shard %d: PUTs of existing keys allocated %d index bytes (a node split)", i, got-used[i])
		}
		served += s.shards[i].Engine().Now() - start[i]
	}
	t.Logf("served virtual time of the script after the CRASH: %v", served)
}
