package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/crash"
	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// testGeometry shrinks the machine so transactions overflow the cache
// hierarchy (exercising logs and slow paths) and tests stay fast.
func testGeometry() *mem.Config {
	cfg := mem.DefaultConfig()
	cfg.L1Size = 8 * mem.LineSize
	cfg.L1Ways = 2
	cfg.LLCSize = 8 * mem.LineSize
	cfg.LLCWays = 4
	cfg.DRAMCacheSize = 64 * mem.LineSize
	cfg.DRAMCacheWays = 4
	return &cfg
}

// testOptions enables commit tracking so the committed-prefix oracle
// has ground truth.
func testOptions() *core.Options {
	o := core.DefaultOptions()
	o.Paranoid = false
	o.TrackCommits = true
	return &o
}

// startServer boots a small server on a random port and registers
// cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Geometry == nil {
		cfg.Geometry = testGeometry()
	}
	if cfg.Options == nil {
		cfg.Options = testOptions()
	}
	if cfg.Cores == 0 {
		cfg.Cores = 2
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 64
	}
	s := New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialT(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustDo issues one command and fails the test on transport errors.
func mustDo(t *testing.T, c *Client, args ...string) Reply {
	t.Helper()
	rep, err := c.DoStrings(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return rep
}

// TestServeEndToEnd drives every command over a real TCP connection.
func TestServeEndToEnd(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)

	if rep := mustDo(t, c, "PING"); rep.Kind != ReplySimple || rep.Str != "PONG" {
		t.Fatalf("PING → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", "5"); rep.Kind != ReplyBulk || !rep.Nil {
		t.Fatalf("GET missing key → %+v, want nil bulk", rep)
	}
	if rep := mustDo(t, c, "PUT", "5", "hello"); rep.Kind != ReplySimple || rep.Str != "OK" {
		t.Fatalf("PUT → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", "5"); rep.Kind != ReplyBulk || string(rep.Bulk) != "hello" {
		t.Fatalf("GET → %+v, want hello", rep)
	}
	if rep := mustDo(t, c, "SET", "6", "world"); rep.Str != "OK" {
		t.Fatalf("SET → %+v", rep)
	}
	for _, k := range []string{"2", "9"} {
		mustDo(t, c, "PUT", k, "v"+k)
	}
	// SCAN from 2: keys 2,5,6,9 in order.
	rep := mustDo(t, c, "SCAN", "2", "10")
	if rep.Kind != ReplyArray || len(rep.Array) != 8 {
		t.Fatalf("SCAN → %+v, want 4 key,value pairs", rep)
	}
	wantKeys := []string{"2", "5", "6", "9"}
	for i, k := range wantKeys {
		if got := string(rep.Array[2*i].Bulk); got != k {
			t.Fatalf("SCAN key %d = %q, want %q", i, got, k)
		}
	}
	// SCAN respects count.
	if rep := mustDo(t, c, "SCAN", "2", "2"); len(rep.Array) != 4 {
		t.Fatalf("SCAN count 2 returned %d elements, want 4", len(rep.Array))
	}
	if rep := mustDo(t, c, "DEL", "5"); rep.Kind != ReplyInt || rep.Int != 1 {
		t.Fatalf("DEL existing → %+v", rep)
	}
	if rep := mustDo(t, c, "DEL", "5"); rep.Int != 0 {
		t.Fatalf("DEL missing → %+v", rep)
	}
	// Deleted key is filtered out of scans (stale index entries must
	// not leak).
	if rep := mustDo(t, c, "SCAN", "2", "10"); len(rep.Array) != 6 {
		t.Fatalf("SCAN after DEL returned %d elements, want 6", len(rep.Array))
	}

	// MULTI..EXEC: one durable transaction, per-op replies in order.
	mustDo(t, c, "MULTI")
	if rep := mustDo(t, c, "PUT", "100", "batched"); rep.Str != "QUEUED" {
		t.Fatalf("queued PUT → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", "100"); rep.Str != "QUEUED" {
		t.Fatalf("queued GET → %+v", rep)
	}
	if rep := mustDo(t, c, "STATS"); rep.Kind != ReplyErr {
		t.Fatalf("STATS inside MULTI → %+v, want error", rep)
	}
	rep = mustDo(t, c, "EXEC")
	if rep.Kind != ReplyArray || len(rep.Array) != 2 {
		t.Fatalf("EXEC → %+v", rep)
	}
	if rep.Array[0].Str != "OK" || string(rep.Array[1].Bulk) != "batched" {
		t.Fatalf("EXEC replies = %+v: queued GET must see the queued PUT", rep.Array)
	}

	// DISCARD drops the queue.
	mustDo(t, c, "MULTI")
	mustDo(t, c, "PUT", "200", "dropped")
	mustDo(t, c, "DISCARD")
	if rep := mustDo(t, c, "GET", "200"); !rep.Nil {
		t.Fatalf("GET after DISCARD → %+v, want nil", rep)
	}
	// A parse error inside MULTI poisons the batch.
	mustDo(t, c, "MULTI")
	if rep := mustDo(t, c, "PUT", "notakey", "x"); rep.Kind != ReplyErr {
		t.Fatalf("bad queued PUT → %+v", rep)
	}
	mustDo(t, c, "PUT", "201", "fine")
	if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyErr || !strings.Contains(rep.Str, "EXECABORT") {
		t.Fatalf("EXEC after poisoned queue → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", "201"); !rep.Nil {
		t.Fatalf("poisoned batch still committed: %+v", rep)
	}

	// Error isolation: bad commands answer -ERR and the connection
	// keeps working.
	if rep := mustDo(t, c, "NOSUCH"); rep.Kind != ReplyErr {
		t.Fatalf("unknown command → %+v", rep)
	}
	if rep := mustDo(t, c, "GET"); rep.Kind != ReplyErr {
		t.Fatalf("GET with no key → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", "xyz"); rep.Kind != ReplyErr {
		t.Fatalf("GET with non-numeric key → %+v", rep)
	}
	if rep := mustDo(t, c, "PING"); rep.Str != "PONG" {
		t.Fatalf("connection dead after errors: %+v", rep)
	}

	// STATS returns a JSON document with both halves.
	rep = mustDo(t, c, "STATS")
	if rep.Kind != ReplyBulk {
		t.Fatalf("STATS → %+v", rep)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rep.Bulk, &doc); err != nil {
		t.Fatalf("STATS is not JSON: %v\n%s", err, rep.Bulk)
	}
	for _, k := range []string{"server", "machine"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("STATS lacks %q:\n%s", k, rep.Bulk)
		}
	}
	if rep := mustDo(t, c, "QUIT"); rep.Str != "OK" {
		t.Fatalf("QUIT → %+v", rep)
	}
}

// TestInlineOverWire drives the nc-style inline form through a raw
// connection.
func TestInlineOverWire(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	c.w.WriteString("PUT 3 inlineval\r\nGET 3\r\n\r\nPING\r\n")
	c.w.Flush()
	if rep, err := ReadReply(c.r); err != nil || rep.Str != "OK" {
		t.Fatalf("inline PUT → %+v, %v", rep, err)
	}
	if rep, err := ReadReply(c.r); err != nil || string(rep.Bulk) != "inlineval" {
		t.Fatalf("inline GET → %+v, %v", rep, err)
	}
	// The blank line was skipped; PING answers next.
	if rep, err := ReadReply(c.r); err != nil || rep.Str != "PONG" {
		t.Fatalf("PING after blank line → %+v, %v", rep, err)
	}
}

// TestConcurrentClients hammers the server from several connections and
// checks every acked write is readable.
func TestConcurrentClients(t *testing.T) {
	s := startServer(t, Config{Cores: 4})
	const conns, perConn = 4, 25
	errCh := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			c, err := Dial(s.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < perConn; i++ {
				key := strconv.Itoa(1000*w + i)
				val := fmt.Sprintf("w%d-%d", w, i)
				if rep, err := c.DoStrings("PUT", key, val); err != nil || rep.Str != "OK" {
					errCh <- fmt.Errorf("PUT %s: %+v %v", key, rep, err)
					return
				}
				if rep, err := c.DoStrings("GET", key); err != nil || string(rep.Bulk) != val {
					errCh <- fmt.Errorf("GET %s: %+v %v", key, rep, err)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	for w := 0; w < conns; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// serverOps is a deterministic op sequence shared by the equivalence
// test's two paths.
func serverOps() []Op {
	var ops []Op
	for i := 0; i < 40; i++ {
		k := uint64(i%13 + 1)
		switch i % 5 {
		case 0, 1, 3:
			val := bytes.Repeat([]byte{byte('a' + i%26)}, 24+i%40)
			ops = append(ops, Op{Kind: OpPut, Key: k, Val: val})
		case 2:
			ops = append(ops, Op{Kind: OpGet, Key: k})
		case 4:
			ops = append(ops, Op{Kind: OpDel, Key: k})
		}
	}
	return ops
}

// TestServerPathMatchesOneShotPath is the regression for the central
// refactor: the same op sequence produces a byte-identical durable NVM
// data image whether it is applied through the long-lived server (TCP,
// sessions, recycled threads, one request per op) or through the
// one-shot harness path (fresh engine, one run, one transaction per
// op). If session recycling or the server batching path ever perturbs
// allocation order or commit content, the images diverge.
func TestServerPathMatchesOneShotPath(t *testing.T) {
	ops := serverOps()

	// Path A: over the wire through a live server, one request per op,
	// on path B's engine seed.
	s := startServer(t, Config{Cores: 2, Buckets: 64, Seed: 42})
	c := dialT(t, s)
	for _, op := range ops {
		key := strconv.FormatUint(op.Key, 10)
		var err error
		switch op.Kind {
		case OpPut:
			_, err = c.Do([]byte("PUT"), []byte(key), op.Val)
		case OpGet:
			_, err = c.Do([]byte("GET"), []byte(key))
		case OpDel:
			_, err = c.Do([]byte("DEL"), []byte(key))
		}
		if err != nil {
			t.Fatalf("op %v over wire: %v", op.Kind, err)
		}
	}
	c.Close()
	s.Close() // graceful: drains and checkpoints
	imgServer := crash.Baseline(s.Machine())

	// Path B: the one-shot harness path — fresh engine, one Run, same
	// ops as individual transactions on one thread.
	results := harness.Execute([]harness.Spec[map[mem.Addr]mem.Line]{{
		Experiment: "equivalence", System: "uhtm", Bench: "server-ops", Seed: 42,
		Run: func() map[mem.Addr]mem.Line {
			eng := sim.NewEngine(42)
			m := core.NewMachine(eng, *testGeometry(), *testOptions())
			st := NewStore(m, 64)
			eng.Spawn("oneshot", func(th *sim.Thread) {
				ctx := m.NewCtx(th, 0)
				for _, op := range ops {
					st.Apply(ctx, []Op{op})
				}
			})
			eng.Run()
			m.ReclaimLogs()
			return crash.Baseline(m)
		},
	}}, 1)
	imgOneShot := results[0]

	if len(imgServer) != len(imgOneShot) {
		t.Fatalf("durable image sizes differ: server %d lines, one-shot %d", len(imgServer), len(imgOneShot))
	}
	for a, l := range imgOneShot {
		if imgServer[a] != l {
			t.Fatalf("line %#x differs: server %x, one-shot %x", uint64(a), imgServer[a], l)
		}
	}
}

// TestCrashCommandRecovery drives traffic, fires the CRASH command
// mid-run, and verifies the recovered durable image with the
// committed-prefix oracle plus read-your-acked-writes.
func TestCrashCommandRecovery(t *testing.T) {
	s := startServer(t, Config{Cores: 2, Buckets: 64, Prepopulate: 8})
	baseline := crash.Baseline(s.Machine())
	c := dialT(t, s)

	acked := map[uint64]string{}
	for i := 0; i < 30; i++ {
		k := uint64(i%11 + 1)
		v := fmt.Sprintf("pre-crash-%d", i)
		if rep := mustDo(t, c, "PUT", strconv.FormatUint(k, 10), v); rep.Str != "OK" {
			t.Fatalf("PUT → %+v", rep)
		}
		acked[k] = v
	}
	if rep := mustDo(t, c, "CRASH"); rep.Str != "OK" {
		t.Fatalf("CRASH → %+v", rep)
	}
	// The machine crashed and recovered; the reply ordering guarantees
	// the recovery finished before we inspect.
	if detail := crash.VerifyRecovered(s.Machine(), 2, baseline); detail != "" {
		t.Fatalf("committed-prefix oracle: %s", detail)
	}
	// Acked writes survived (durability of acknowledged commits).
	for k, v := range acked {
		rep := mustDo(t, c, "GET", strconv.FormatUint(k, 10))
		if string(rep.Bulk) != v {
			t.Fatalf("key %d after recovery = %q, want %q", k, rep.Bulk, v)
		}
	}
	// The drill's measured recovery pass is surfaced by STATS: the logs
	// were scanned and the pre-crash commits replayed.
	var doc struct {
		Server struct {
			Crashes         uint64 `json:"crashes"`
			RecoveryScanned int    `json:"recovery_scanned"`
			RecoveryApplied int    `json:"recovery_applied"`
			RecoveryPS      int64  `json:"recovery_ps"`
		} `json:"server"`
	}
	if rep := mustDo(t, c, "STATS"); json.Unmarshal(rep.Bulk, &doc) != nil {
		t.Fatalf("STATS is not JSON:\n%s", rep.Bulk)
	}
	if doc.Server.Crashes != 1 || doc.Server.RecoveryScanned == 0 ||
		doc.Server.RecoveryApplied == 0 || doc.Server.RecoveryPS == 0 {
		t.Errorf("STATS after drill = %+v, want crashes=1 and a non-zero recovery pass", doc.Server)
	}
	// Prepopulated keys the run never overwrote are intact, and the
	// rebuilt index still serves ordered scans.
	rep := mustDo(t, c, "SCAN", "1", "100")
	if rep.Kind != ReplyArray || len(rep.Array) == 0 {
		t.Fatalf("SCAN after recovery → %+v", rep)
	}
	var prev uint64
	for i := 0; i < len(rep.Array); i += 2 {
		k, err := strconv.ParseUint(string(rep.Array[i].Bulk), 10, 64)
		if err != nil || k <= prev {
			t.Fatalf("SCAN order broken after recovery at element %d (%q)", i, rep.Array[i].Bulk)
		}
		prev = k
	}
	// And the server still takes writes.
	if rep := mustDo(t, c, "PUT", "999", "post-crash"); rep.Str != "OK" {
		t.Fatalf("PUT after recovery → %+v", rep)
	}
}

// TestHaltMidBatchRecovery injects a power failure that lands inside a
// serving batch (HaltAt on virtual time): in-flight requests answer
// with an error, the machine recovers, the oracle holds, and serving
// resumes — the kill-and-restart path without the courtesy of a batch
// boundary.
func TestHaltMidBatchRecovery(t *testing.T) {
	s := New(Config{Cores: 2, Buckets: 64, Geometry: testGeometry(), Options: testOptions()})
	baseline := crash.Baseline(s.Machine())
	// Halt deep inside the traffic below (virtual time accumulates per
	// transaction, so a few dozen PUTs pass 1µs of simulated time).
	s.Engine().HaltAt(1 * sim.Microsecond)
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer s.Close()
	c := dialT(t, s)

	sawPowerLoss := false
	for i := 0; i < 400; i++ {
		rep, err := c.DoStrings("PUT", strconv.Itoa(i%17+1), fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatalf("PUT %d transport error: %v", i, err)
		}
		if rep.Kind == ReplyErr {
			if !strings.Contains(rep.Str, "lost power") {
				t.Fatalf("PUT %d unexpected error: %+v", i, rep)
			}
			sawPowerLoss = true
			break
		}
	}
	if !sawPowerLoss {
		t.Fatal("the injected halt never surfaced as a lost-power error")
	}
	if detail := crash.VerifyRecovered(s.Machine(), 2, baseline); detail != "" {
		t.Fatalf("committed-prefix oracle after mid-batch halt: %s", detail)
	}
	// Service resumed.
	if rep := mustDo(t, c, "PUT", "888", "after-halt"); rep.Str != "OK" {
		t.Fatalf("PUT after halt recovery → %+v", rep)
	}
	if rep := mustDo(t, c, "GET", "888"); string(rep.Bulk) != "after-halt" {
		t.Fatalf("GET after halt recovery → %+v", rep)
	}
}

// TestGracefulShutdownCheckpoints: Close must leave a durable image
// that recovers with zero replay work — the final WAL checkpoint
// covered everything.
func TestGracefulShutdownCheckpoints(t *testing.T) {
	s := startServer(t, Config{Cores: 2, Buckets: 64})
	c := dialT(t, s)
	for i := 1; i <= 20; i++ {
		mustDo(t, c, "PUT", strconv.Itoa(i), "shutdown-test")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := s.Machine()
	m.Crash()
	replay := m.Recover()
	if replay.AppliedLines != 0 {
		t.Fatalf("recovery after graceful shutdown replayed %d lines, want 0 (checkpoint must cover all commits)", replay.AppliedLines)
	}
	// The data really is in the durable image.
	got, ok := s.KV().Table().Get(m.Store(), 20)
	if !ok || string(got) != "shutdown-test" {
		t.Fatalf("durable table after shutdown: %q, %v", got, ok)
	}
}

// TestLoadgenSmoke runs the open-loop generator briefly against a live
// server and sanity-checks the report and its JSONL form.
func TestLoadgenSmoke(t *testing.T) {
	s := startServer(t, Config{Cores: 4, Prepopulate: 64})
	var out bytes.Buffer
	rep, err := RunLoad(LoadConfig{
		Addr:     s.Addr().String(),
		Conns:    2,
		QPS:      400,
		Duration: 300 * time.Millisecond,
		KeySpace: 64,
		ReadFrac: 0.5,
		Out:      &out,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Commits == 0 {
		t.Fatal("loadgen drove no commits through the machine")
	}
	if rep.P50us <= 0 || rep.P99us < rep.P50us || rep.P999us < rep.P99us {
		t.Fatalf("percentiles not monotone: %+v", rep)
	}
	line := out.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("Out got %q, want exactly one JSON line", line)
	}
	var back LoadReport
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("report line is not JSON: %v", err)
	}
	if back.Kind != "loadgen" || back.Requests != rep.Requests {
		t.Fatalf("round-tripped report %+v != %+v", back, rep)
	}
}

// TestLoadgenBatchedAndCrash runs MULTI-batched load concurrently with
// a CRASH, proving the wire-level recovery drill works under load.
func TestLoadgenBatchedAndCrash(t *testing.T) {
	s := startServer(t, Config{Cores: 4, Prepopulate: 32})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := Dial(s.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		time.Sleep(50 * time.Millisecond)
		c.DoStrings("CRASH")
	}()
	rep, err := RunLoad(LoadConfig{
		Addr:      s.Addr().String(),
		Conns:     2,
		QPS:       300,
		Duration:  250 * time.Millisecond,
		KeySpace:  32,
		BatchSize: 3,
		ReadFrac:  0.5,
	})
	<-done
	if err != nil {
		t.Fatalf("RunLoad with concurrent CRASH: %v", err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed around the crash")
	}
	// The store still serves coherent data.
	c := dialT(t, s)
	if rep := mustDo(t, c, "PUT", "77", "post"); rep.Str != "OK" {
		t.Fatalf("PUT after crash-under-load → %+v", rep)
	}
}
