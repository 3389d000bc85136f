package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/sim"
)

// keysOnShard returns the first n keys at or above start whose home
// shard (under the server's routing hash) is sh.
func keysOnShard(sh, shards, n int, start uint64) []uint64 {
	var out []uint64
	for k := start; len(out) < n; k++ {
		if shard.ShardOf(k, shards) == sh {
			out = append(out, k)
		}
	}
	return out
}

// shardBaselines captures every shard's durable NVM data image.
func shardBaselines(s *Server) []map[mem.Addr]mem.Line {
	out := make([]map[mem.Addr]mem.Line, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, crash.Baseline(sh.Machine()))
	}
	return out
}

// armShard arms an injector at point's first visit and hooks it on
// shard k of the server's cluster, halting that shard's engine when it
// fires.
func armShard(s *Server, k int, point string) *crash.Injector {
	in := crash.Arm(crash.Injection{Point: point, Visit: 1})
	s.Cluster().SetHook(k, in.HaltHook("", s.Cluster().Shards()[k].Engine()))
	return in
}

// TestShardedEndToEnd drives a 4-shard server over the wire: routed
// single-key ops, the all-shard SCAN merge, a cross-shard MULTI through
// 2PC, and the sharded STATS fields.
func TestShardedEndToEnd(t *testing.T) {
	s := startServer(t, Config{Shards: 4, Cores: 2, Buckets: 64})
	c := dialT(t, s)

	for k := uint64(1); k <= 40; k++ {
		ks := strconv.FormatUint(k, 10)
		if rep := mustDo(t, c, "PUT", ks, "v"+ks); rep.Str != "OK" {
			t.Fatalf("PUT %s → %+v", ks, rep)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		ks := strconv.FormatUint(k, 10)
		if rep := mustDo(t, c, "GET", ks); string(rep.Bulk) != "v"+ks {
			t.Fatalf("GET %s → %+v", ks, rep)
		}
	}
	if rep := mustDo(t, c, "DEL", "7"); rep.Kind != ReplyInt || rep.Int != 1 {
		t.Fatalf("DEL → %+v", rep)
	}

	// SCAN merges every shard's slice into one ascending result.
	rep := mustDo(t, c, "SCAN", "1", "100")
	if rep.Kind != ReplyArray || len(rep.Array) != 2*39 {
		t.Fatalf("SCAN → kind=%v len=%d, want 39 pairs", rep.Kind, len(rep.Array))
	}
	var prev uint64
	for i := 0; i < len(rep.Array); i += 2 {
		k, err := strconv.ParseUint(string(rep.Array[i].Bulk), 10, 64)
		if err != nil || k <= prev || k == 7 {
			t.Fatalf("merged SCAN broken at element %d (%q, prev %d)", i, rep.Array[i].Bulk, prev)
		}
		prev = k
	}
	// And respects the count cap across shards.
	if rep := mustDo(t, c, "SCAN", "1", "5"); len(rep.Array) != 10 {
		t.Fatalf("SCAN count 5 returned %d elements, want 10", len(rep.Array))
	}

	// A MULTI whose keys straddle shards commits through 2PC and reads
	// its own writes back.
	k0 := keysOnShard(0, 4, 1, 1000)[0]
	k3 := keysOnShard(3, 4, 1, 1000)[0]
	mustDo(t, c, "MULTI")
	mustDo(t, c, "PUT", strconv.FormatUint(k0, 10), "cross-a")
	mustDo(t, c, "PUT", strconv.FormatUint(k3, 10), "cross-b")
	rep = mustDo(t, c, "EXEC")
	if rep.Kind != ReplyArray || len(rep.Array) != 2 {
		t.Fatalf("cross EXEC → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", strconv.FormatUint(k0, 10)); string(rep.Bulk) != "cross-a" {
		t.Fatalf("GET after cross EXEC → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", strconv.FormatUint(k3, 10)); string(rep.Bulk) != "cross-b" {
		t.Fatalf("GET after cross EXEC → %+v", rep)
	}

	// A SCAN joins a MULTI like any op. Each one reads every shard in
	// the MULTI's order: the SCAN queued before the PUTs misses them,
	// the SCANs after them return one ascending, count-capped slice
	// merged from all four shards, the PUTs included.
	p := keysOnShard(1, 4, 1, 41)[0]
	q := keysOnShard(2, 4, 1, 41)[0]
	mustDo(t, c, "MULTI")
	for _, cmd := range [][]string{
		{"SCAN", "41", "10"},
		{"PUT", strconv.FormatUint(p, 10), "multi-p"},
		{"PUT", strconv.FormatUint(q, 10), "multi-q"},
		{"SCAN", "41", "3"},
		{"SCAN", "39", "3"},
	} {
		if rep := mustDo(t, c, cmd...); rep.Str != "QUEUED" {
			t.Fatalf("%v in MULTI → %+v, want QUEUED", cmd, rep)
		}
	}
	rep = mustDo(t, c, "EXEC")
	if rep.Kind != ReplyArray || len(rep.Array) != 5 {
		t.Fatalf("EXEC of a MULTI with SCANs → %+v", rep)
	}
	vals := map[uint64]string{k0: "cross-a", k3: "cross-b", p: "multi-p", q: "multi-q", 39: "v39", 40: "v40"}
	lo, hi := min(k0, k3), max(k0, k3)
	for i, want := range map[int][]uint64{
		0: {lo, hi},
		3: {min(p, q), max(p, q), lo},
		4: {39, 40, min(p, q)},
	} {
		scan := rep.Array[i]
		var got []uint64
		for j := 0; j+1 < len(scan.Array); j += 2 {
			k, _ := strconv.ParseUint(string(scan.Array[j].Bulk), 10, 64)
			got = append(got, k)
			if string(scan.Array[j+1].Bulk) != vals[k] {
				t.Fatalf("EXEC reply %d: key %d has value %q, want %q", i, k, scan.Array[j+1].Bulk, vals[k])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("EXEC reply %d scanned keys %v, want %v", i, got, want)
		}
	}
	if rep := mustDo(t, c, "GET", strconv.FormatUint(q, 10)); string(rep.Bulk) != "multi-q" {
		t.Fatalf("GET after the MULTI with SCANs → %+v", rep)
	}

	// STATS reports the shard count and the 2PC counters.
	var doc statsDoc
	if rep := mustDo(t, c, "STATS"); json.Unmarshal(rep.Bulk, &doc) != nil {
		t.Fatalf("STATS not decodable: %+v", rep)
	}
	if doc.Server.Shards != 4 {
		t.Fatalf("STATS shards = %d, want 4", doc.Server.Shards)
	}
	if doc.Server.CrossCommits < 1 {
		t.Fatalf("STATS cross_commits = %d, want >= 1", doc.Server.CrossCommits)
	}
	if doc.Machine.Commits == 0 {
		t.Fatal("aggregated machine stats show no commits")
	}
}

// TestCrossShardMultiAtomicityUnderCrash commits a stream of cross-shard
// MULTIs, power-fails the whole cluster via CRASH, and verifies every
// shard against the committed-prefix oracle plus read-your-acked-writes
// — the cluster-level acked-implies-durable drill. No goroutine the
// server started for any of it (connections, waves, recovery) outlives
// Close.
func TestCrossShardMultiAtomicityUnderCrash(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64, Prepopulate: 16})
	baselines := shardBaselines(s)
	c := dialT(t, s)

	k0s := keysOnShard(0, 2, 20, 100)
	k1s := keysOnShard(1, 2, 20, 100)
	acked := map[uint64]string{}
	for i := 0; i < 20; i++ {
		v := fmt.Sprintf("cross-%d", i)
		mustDo(t, c, "MULTI")
		mustDo(t, c, "PUT", strconv.FormatUint(k0s[i], 10), v+"a")
		mustDo(t, c, "PUT", strconv.FormatUint(k1s[i], 10), v+"b")
		rep := mustDo(t, c, "EXEC")
		if rep.Kind != ReplyArray {
			t.Fatalf("cross EXEC %d → %+v", i, rep)
		}
		acked[k0s[i]] = v + "a"
		acked[k1s[i]] = v + "b"
	}
	if rep := mustDo(t, c, "CRASH"); rep.Str != "OK" {
		t.Fatalf("CRASH → %+v", rep)
	}
	for k, sh := range s.shards {
		if d := crash.VerifyRecovered(sh.Machine(), 4, baselines[k]); d != "" {
			t.Fatalf("shard %d committed-prefix oracle: %s", k, d)
		}
	}
	for k, v := range acked {
		rep := mustDo(t, c, "GET", strconv.FormatUint(k, 10))
		if string(rep.Bulk) != v {
			t.Fatalf("acked key %d after cluster recovery = %q, want %q", k, rep.Bulk, v)
		}
	}
	// The cluster serves — including new cross transactions — after
	// recovery.
	mustDo(t, c, "MULTI")
	mustDo(t, c, "PUT", strconv.FormatUint(k0s[0], 10), "post-crash-a")
	mustDo(t, c, "PUT", strconv.FormatUint(k1s[0], 10), "post-crash-b")
	if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyArray {
		t.Fatalf("cross EXEC after recovery → %+v", rep)
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close returns once the engine loop has closed loopDone, which it
	// does in a defer, so that goroutine may still be exiting: poll for
	// a bounded time before calling the surplus a leak.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5s after Close, %d before the server started:\n%s",
				runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHaltMidCrossRecovery injects power failures inside the 2PC
// protocol itself from the serving path: before the decision the request
// fails and leaves no trace; after the decision the request is acked and
// recovery completes it everywhere.
func TestHaltMidCrossRecovery(t *testing.T) {
	k0 := keysOnShard(0, 2, 1, 500)[0]
	k1 := keysOnShard(1, 2, 1, 500)[0]

	t.Run("before-decision", func(t *testing.T) {
		s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64})
		in := armShard(s, 1, shard.PointPrepareLogged)
		c := dialT(t, s)

		mustDo(t, c, "MULTI")
		mustDo(t, c, "PUT", strconv.FormatUint(k0, 10), "doomed-a")
		mustDo(t, c, "PUT", strconv.FormatUint(k1, 10), "doomed-b")
		rep := mustDo(t, c, "EXEC")
		if rep.Kind != ReplyErr || !strings.Contains(rep.Str, "lost power") {
			t.Fatalf("EXEC across the halt → %+v, want lost-power error", rep)
		}
		if !in.Fired() {
			t.Fatal("injection never fired")
		}
		in.Disarm()

		// The undecided transaction vanished on both shards.
		for _, k := range []uint64{k0, k1} {
			if rep := mustDo(t, c, "GET", strconv.FormatUint(k, 10)); !rep.Nil {
				t.Fatalf("unacked key %d visible after recovery: %+v", k, rep)
			}
		}
		// The retry commits.
		mustDo(t, c, "MULTI")
		mustDo(t, c, "PUT", strconv.FormatUint(k0, 10), "retry-a")
		mustDo(t, c, "PUT", strconv.FormatUint(k1, 10), "retry-b")
		if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyArray {
			t.Fatalf("retry EXEC → %+v", rep)
		}
		if rep := mustDo(t, c, "GET", strconv.FormatUint(k1, 10)); string(rep.Bulk) != "retry-b" {
			t.Fatalf("GET after retry → %+v", rep)
		}
	})

	t.Run("after-decision", func(t *testing.T) {
		s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64})
		in := armShard(s, 1, shard.PointApplyMark)
		c := dialT(t, s)

		mustDo(t, c, "MULTI")
		mustDo(t, c, "PUT", strconv.FormatUint(k0, 10), "decided-a")
		mustDo(t, c, "PUT", strconv.FormatUint(k1, 10), "decided-b")
		rep := mustDo(t, c, "EXEC")
		if rep.Kind != ReplyArray {
			t.Fatalf("EXEC with a durable decision → %+v, want success (recovery completes it)", rep)
		}
		if !in.Fired() {
			t.Fatal("injection never fired")
		}
		in.Disarm()

		// The acked transaction is applied on both shards.
		if rep := mustDo(t, c, "GET", strconv.FormatUint(k0, 10)); string(rep.Bulk) != "decided-a" {
			t.Fatalf("GET %d → %+v", k0, rep)
		}
		if rep := mustDo(t, c, "GET", strconv.FormatUint(k1, 10)); string(rep.Bulk) != "decided-b" {
			t.Fatalf("GET %d → %+v", k1, rep)
		}
	})
}

// TestHaltInScanPrepare: a SCAN-only request on a sharded server goes
// through the coordinator, and a power failure in its prepare fails it
// with the lost-power error; the recovered cluster serves the next
// request. A read-only prepare fires no protocol point, so the halt is
// shard 1's engine deadline, which its prepare thread is the first to
// reach.
func TestHaltInScanPrepare(t *testing.T) {
	s := New(Config{Shards: 2, Cores: 2, Buckets: 64, Prepopulate: 8,
		Geometry: testGeometry(), Options: testOptions()})
	defer s.Close()
	scan := []Op{{Kind: OpScan, Key: 1, N: 100}}
	req := s.route(scan)
	if req.kind != reqCross {
		t.Fatalf("a SCAN on a 2-shard server routed as %v, want the coordinator", req.kind)
	}
	s.shards[1].Engine().HaltAt(0)
	req.done = make(chan struct{})
	s.step([]*request{req})
	if req.err != errLostPower {
		t.Fatalf("SCAN across a halt in its prepare: err = %v, want the lost-power error", req.err)
	}
	if s.crashes != 1 {
		t.Fatalf("%d recoveries after the halt, want 1", s.crashes)
	}
	got := runStep(t, s, scan...)[0].Keys
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("SCAN after recovery = %v, want %v", got, want)
	}
}

// TestLoneScanJoinsTheWave: on a one-shard server a lone SCAN touches
// one shard, so it batches with the other single-shard requests in one
// wave; on a sharded server it touches every shard and goes through the
// coordinator.
func TestLoneScanJoinsTheWave(t *testing.T) {
	s := New(Config{Cores: 2, Buckets: 64, Prepopulate: 4,
		Geometry: testGeometry(), Options: testOptions()})
	defer s.Close()
	scan := s.route([]Op{{Kind: OpScan, Key: 1, N: 10}})
	get := s.route([]Op{{Kind: OpGet, Key: 3}})
	if scan.kind != reqOps || scan.shard != 0 {
		t.Fatalf("a lone SCAN on one shard routed as kind %v shard %d, want the shard-0 wave", scan.kind, scan.shard)
	}
	scan.done, get.done = make(chan struct{}), make(chan struct{})
	if rest := s.step([]*request{scan, get}); len(rest) != 0 || s.batches != 1 {
		t.Fatalf("SCAN and GET left %d queued after %d batches, want one wave for both", len(rest), s.batches)
	}
	if got := scan.results[0].Keys; !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("SCAN in the wave = %v, want [1 2 3 4]", got)
	}

	sharded := New(Config{Shards: 2, Cores: 2, Buckets: 64,
		Geometry: testGeometry(), Options: testOptions()})
	defer sharded.Close()
	if r := sharded.route([]Op{{Kind: OpScan, Key: 1, N: 10}}); r.kind != reqCross {
		t.Fatalf("a lone SCAN on two shards routed as kind %v, want the coordinator", r.kind)
	}
}

// TestStatsMachineIsClusterSum pins the machine half of STATS on a
// 4-shard server to its definition: every shard's counters summed
// (stats.Stats.Add onto shard 0's), Elapsed the latest shard's virtual
// time, marshalled byte for byte.
func TestStatsMachineIsClusterSum(t *testing.T) {
	s := New(Config{Shards: 4, Cores: 2, Buckets: 64, Prepopulate: 32,
		Geometry: testGeometry(), Options: testOptions()})
	defer s.Close()
	for k := uint64(1); k <= 12; k++ {
		runStep(t, s, Op{Kind: OpPut, Key: k, Val: []byte(fmt.Sprint("v", k))})
	}
	runStep(t, s, Op{Kind: OpGet, Key: 3}, Op{Kind: OpPut, Key: 4, Val: []byte("x")}, Op{Kind: OpScan, Key: 1, N: 8})

	want := *s.shards[0].Machine().Stats()
	var now sim.Time
	for i, sh := range s.shards {
		if i > 0 {
			want.Add(sh.Machine().Stats())
		}
		now = max(now, sh.Engine().Now())
	}
	want.Elapsed = now
	wantJSON, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machine json.RawMessage `json:"machine"`
	}
	if err := json.Unmarshal(s.statsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if want.Commits == 0 || !bytes.Equal(doc.Machine, wantJSON) {
		t.Fatalf("STATS machine half\n got %s\nwant %s", doc.Machine, wantJSON)
	}
}

// TestLoadgenCrossFrac drives the generator's cross-shard knob against a
// sharded server and checks the report's 2PC counters; against a
// single-shard server the knob is a configuration error.
func TestLoadgenCrossFrac(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Cores: 2, Buckets: 64, Prepopulate: 32})
	rep, err := RunLoad(LoadConfig{
		Addr:      s.Addr().String(),
		Conns:     2,
		QPS:       300,
		Duration:  300 * time.Millisecond,
		KeySpace:  64,
		CrossFrac: 1,
		ReadFrac:  0.5,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.CrossFrac != 1 {
		t.Fatalf("report cross_frac = %v, want 1", rep.CrossFrac)
	}
	if rep.CrossCommits == 0 {
		t.Fatalf("cross_frac 1 drove no cross-shard commits: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("cross-shard load saw %d request errors", rep.Errors)
	}

	single := startServer(t, Config{Cores: 2, Buckets: 64})
	if _, err := RunLoad(LoadConfig{
		Addr:      single.Addr().String(),
		Duration:  50 * time.Millisecond,
		CrossFrac: 0.5,
	}); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("CrossFrac on a single-shard server: err = %v, want sharded-server error", err)
	}
}
