package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The regression tests for the PR's satellite bug fixes: the shutdown
// send-on-closed-channel race, zero values that stood for defaults, the
// zero-op EXEC transaction, and silently vanishing loadgen workers.

// TestShutdownUnderLoadRace closes the server while several connections
// hammer it with data ops, STATS barriers and CRASH drills. The bug this
// pins down: the old engine-loop requeue goroutine could send deferred
// requests back on the request channel after Close had closed it —
// a panic the race detector and this test both catch. Clients may see
// "shutting down" errors or severed connections; the server must never
// panic and Close must return cleanly.
func TestShutdownUnderLoadRace(t *testing.T) {
	for round := 0; round < 3; round++ {
		s := startServer(t, Config{Cores: 2, Buckets: 64, Prepopulate: 16})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := Dial(s.Addr().String())
				if err != nil {
					return
				}
				defer c.Close()
				for i := 0; ; i++ {
					var err error
					switch {
					case w == 0 && i%25 == 24:
						_, err = c.DoStrings("CRASH")
					case i%3 == 0:
						_, err = c.DoStrings("PUT", strconv.Itoa(i%31+1), "x")
					case i%3 == 1:
						_, err = c.DoStrings("GET", strconv.Itoa(i%31+1))
					default:
						_, err = c.DoStrings("STATS")
					}
					if err != nil {
						return // connection severed by shutdown
					}
				}
			}(w)
		}
		time.Sleep(30 * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: Close under load: %v", round, err)
		}
		wg.Wait()
	}
}

// TestEmptyExecNoTransaction: EXEC on an empty MULTI queue answers an
// empty array without submitting a zero-op durable transaction to the
// machine.
func TestEmptyExecNoTransaction(t *testing.T) {
	s := startServer(t, Config{Cores: 2, Buckets: 64})
	c := dialT(t, s)

	commits := func() uint64 {
		rep := mustDo(t, c, "STATS")
		var doc statsDoc
		if err := json.Unmarshal(rep.Bulk, &doc); err != nil {
			t.Fatalf("STATS: %v", err)
		}
		return doc.Machine.Commits
	}

	before := commits()
	mustDo(t, c, "MULTI")
	rep := mustDo(t, c, "EXEC")
	if rep.Kind != ReplyArray || len(rep.Array) != 0 || rep.Nil {
		t.Fatalf("empty EXEC → %+v, want empty array", rep)
	}
	if after := commits(); after != before {
		t.Fatalf("empty EXEC ran %d transaction(s) on the machine", after-before)
	}
	// The connection's transaction state is clean: a following MULTI
	// batch works normally.
	mustDo(t, c, "MULTI")
	mustDo(t, c, "PUT", "5", "after-empty")
	if rep := mustDo(t, c, "EXEC"); rep.Kind != ReplyArray || len(rep.Array) != 1 {
		t.Fatalf("EXEC after empty EXEC → %+v", rep)
	}
}

// TestConfigsUseReadFracAndSeedAsGiven: no zero value stands for
// "use the default". ReadFrac 0 is a write-only workload and seed 0 is
// a seed, for the load generator and the server alike, and a ReadFrac
// outside [0, 1] is an error instead of a silent 0.8.
func TestConfigsUseReadFracAndSeedAsGiven(t *testing.T) {
	for _, frac := range []float64{0, 0.3, 1} {
		if got := (LoadConfig{ReadFrac: frac}).withDefaults().ReadFrac; got != frac {
			t.Errorf("ReadFrac %v became %v", frac, got)
		}
	}
	if got := (LoadConfig{}).withDefaults().Seed; got != 0 {
		t.Errorf("LoadConfig seed 0 became %d", got)
	}
	if got := (Config{}).withDefaults().Seed; got != 0 {
		t.Errorf("Config seed 0 became %d", got)
	}
	for _, frac := range []float64{-0.5, 1.5, math.NaN()} {
		_, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", ReadFrac: frac})
		if err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("ReadFrac %v: err = %v, want an out-of-range error", frac, err)
		}
	}
}

// TestLoadConfigChecked: RunLoad refuses, before it connects, a
// distribution it does not offer and an explicit Zipf skew that is not
// > 1, instead of running uniform keys or a skew of 1.2. A zero skew
// still means the default, and uniform keys ignore the skew.
func TestLoadConfigChecked(t *testing.T) {
	for _, c := range []struct {
		cfg  LoadConfig
		want string
	}{
		{LoadConfig{Dist: "pareto"}, `unknown distribution "pareto"`},
		{LoadConfig{ZipfS: 1}, "Zipf skew 1 is not > 1"},
		{LoadConfig{Dist: DistZipf, ZipfS: -2}, "Zipf skew -2 is not > 1"},
		{LoadConfig{ZipfS: math.NaN()}, "Zipf skew NaN is not > 1"},
	} {
		c.cfg.Addr = "127.0.0.1:1"
		if _, err := RunLoad(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want %q", c.cfg, err, c.want)
		}
	}
	if got := (LoadConfig{}).withDefaults(); got.Dist != DistZipf || got.ZipfS != 1.2 || got.check() != nil {
		t.Errorf("the zero config defaulted to %s skew %v (check: %v), want zipf 1.2", got.Dist, got.ZipfS, got.check())
	}
	if err := (LoadConfig{Dist: DistUniform, ZipfS: 0.5}).withDefaults().check(); err != nil {
		t.Errorf("uniform keys with skew 0.5: %v", err)
	}
}

// TestPutValueSizes: PUT values come in the fixed {64, 256, 1024}-byte
// mix, each size drawn.
func TestPutValueSizes(t *testing.T) {
	cfg := LoadConfig{ReadFrac: 0}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	seen := map[int]int{}
	for i := 0; i < 300; i++ {
		seen[len(buildOp(cfg, rng, nil)[2])]++
	}
	if len(seen) != 3 || seen[64] == 0 || seen[256] == 0 || seen[1024] == 0 {
		t.Fatalf("PUT value sizes drawn %v, want each of 64, 256 and 1024", seen)
	}
}

// TestBuildOpReadFracExtremes: ReadFrac 0 generates a pure-write stream,
// ReadFrac 1 (ScanFrac 0) a pure-read stream.
func TestBuildOpReadFracExtremes(t *testing.T) {
	writeOnly := LoadConfig{ReadFrac: 0}.withDefaults()
	readOnly := LoadConfig{ReadFrac: 1}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if cmd := string(buildOp(writeOnly, rng, nil)[0]); cmd != "PUT" {
			t.Fatalf("write-only workload generated %s", cmd)
		}
		if cmd := string(buildOp(readOnly, rng, nil)[0]); cmd != "GET" {
			t.Fatalf("read-only workload generated %s", cmd)
		}
	}
}

// TestLoadgenWorkerDeathSurfaced severs every worker connection mid-run
// and checks the report confesses: workers_died set, the run marked
// saturated (its numbers are invalid), and the last error carried for
// diagnosis. The bug this pins down: a worker dying on a connection
// error used to silently disappear, leaving a clean-looking report at a
// fraction of the offered rate.
func TestLoadgenWorkerDeathSurfaced(t *testing.T) {
	s := startServer(t, Config{Cores: 2, Buckets: 64, Prepopulate: 16})
	go func() {
		// Let the workers establish connections and issue a few requests,
		// then cut every live connection server-side.
		time.Sleep(150 * time.Millisecond)
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
	}()
	rep, err := RunLoad(LoadConfig{
		Addr:     s.Addr().String(),
		Conns:    2,
		QPS:      300,
		Duration: 500 * time.Millisecond,
		KeySpace: 16,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.WorkersDied == 0 {
		t.Fatalf("severed workers not reported: %+v", rep)
	}
	if !rep.Saturated {
		t.Fatalf("run with dead workers not marked saturated: %+v", rep)
	}
	if rep.LastError == "" {
		t.Fatalf("report carries no last_error: %+v", rep)
	}
	if rep.Errors == 0 {
		t.Fatalf("dead workers did not count as errors: %+v", rep)
	}
}
