package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"uhtm/internal/shard"
)

// The open-loop load generator. Closed-loop clients (send, wait, send)
// hide saturation: when the server slows down, a closed-loop client
// slows its own arrival rate and latency looks flat. Open-loop
// generation schedules request send times from the target rate alone
// and measures latency from the *scheduled* send time, so queueing
// delay during overload shows up in the percentiles instead of
// disappearing into a depressed arrival rate. EXPERIMENTS.md describes
// the methodology; SERVING.md the knobs.

// Key distributions the generator offers.
const (
	// DistZipf draws keys Zipf(s)-skewed over the key space (hot keys).
	DistZipf = "zipf"
	// DistUniform draws keys uniformly over the key space.
	DistUniform = "uniform"
)

// LoadConfig parameterizes one load-generation run.
type LoadConfig struct {
	// Addr is the server to drive.
	Addr string
	// Conns is the connection (worker) count. Default 4.
	Conns int
	// QPS is the total target request rate across all connections.
	// Default 2000.
	QPS float64
	// Duration bounds the run. Default 2s.
	Duration time.Duration
	// KeySpace draws keys from [1, KeySpace]. Default 10000.
	KeySpace uint64
	// Dist is DistZipf or DistUniform. Default DistZipf.
	Dist string
	// ZipfS is the Zipf skew parameter; with DistZipf it must be > 1.
	// Default 1.2.
	ZipfS float64
	// ReadFrac is the GET fraction, in [0, 1]; the rest are PUTs (with
	// an occasional SCAN when ScanFrac > 0). 0 is a write-only workload.
	ReadFrac float64
	// CrossFrac is the fraction of requests issued as MULTI…EXEC
	// batches whose keys are forced onto at least two shards, exercising
	// the server's 2PC path. Requires a sharded server. Default 0.
	CrossFrac float64
	// ScanFrac carves SCANs out of the read fraction. Default 0.
	ScanFrac float64
	// ScanCount is the count argument SCANs use. Default 10.
	ScanCount int
	// BatchSize > 1 wraps each request in MULTI..EXEC with BatchSize
	// ops — one durable transaction per request either way, but larger
	// transactions. Default 1 (plain single-op commands).
	BatchSize int
	// Seed seeds key/op choice, 0 included.
	Seed int64
	// Out, when set, receives the report as one JSON line.
	Out io.Writer
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.QPS <= 0 {
		c.QPS = 2000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.KeySpace == 0 {
		c.KeySpace = 10000
	}
	if c.Dist == "" {
		c.Dist = DistZipf
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ScanCount <= 0 {
		c.ScanCount = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	return c
}

// check rejects settings the generator cannot use as given. It runs on
// the defaulted config, before any connection is made.
func (c LoadConfig) check() error {
	if !(c.ReadFrac >= 0 && c.ReadFrac <= 1) { // NaN included
		return fmt.Errorf("loadgen: read fraction %v is outside [0, 1]", c.ReadFrac)
	}
	switch c.Dist {
	case DistZipf:
		if !(c.ZipfS > 1) {
			return fmt.Errorf("loadgen: Zipf skew %v is not > 1", c.ZipfS)
		}
	case DistUniform:
	default:
		return fmt.Errorf("loadgen: unknown distribution %q (want %s or %s)", c.Dist, DistZipf, DistUniform)
	}
	return nil
}

// valueSizes is the PUT value-size mix, drawn uniformly.
var valueSizes = [...]int{64, 256, 1024}

// LoadReport is the run summary, emitted as one JSON line (the record
// schema EXPERIMENTS.md documents).
type LoadReport struct {
	Kind        string  `json:"kind"` // always "loadgen"
	Addr        string  `json:"addr"`
	Conns       int     `json:"conns"`
	Dist        string  `json:"dist"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	KeySpace    uint64  `json:"key_space"`
	ReadFrac    float64 `json:"read_frac"`
	ScanFrac    float64 `json:"scan_frac"`
	CrossFrac   float64 `json:"cross_frac,omitempty"`
	BatchSize   int     `json:"batch_size"`
	TargetQPS   float64 `json:"target_qps"`
	DurationS   float64 `json:"duration_s"`
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	AchievedQPS float64 `json:"achieved_qps"`
	// Saturated: the generator could not hold the target rate (or lost
	// workers) — achieved throughput is the saturation throughput at
	// this configuration, or invalid if workers died.
	Saturated bool `json:"saturated"`
	// WorkersDied counts workers that exited early on a connection or
	// issue error; any nonzero value also marks the run Saturated, since
	// the surviving workers cannot hold the configured rate.
	WorkersDied int `json:"workers_died,omitempty"`
	// LastError carries the most recent worker error (died workers
	// included), for diagnosing invalid runs.
	LastError string `json:"last_error,omitempty"`

	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`

	// Server-side transaction counters over the run window (STATS
	// delta): commits, aborts and the abort rate the offered load
	// induced inside the simulated machine.
	Commits   uint64  `json:"commits"`
	Aborts    uint64  `json:"aborts"`
	AbortRate float64 `json:"abort_rate"`

	// Cross-shard 2PC counters over the run window (STATS delta);
	// nonzero only against a sharded server with CrossFrac > 0.
	CrossCommits uint64 `json:"cross_commits,omitempty"`
	CrossAborts  uint64 `json:"cross_aborts,omitempty"`
}

// fetchStats issues STATS on a fresh connection and decodes it.
func fetchStats(addr string) (statsDoc, error) {
	var doc statsDoc
	c, err := Dial(addr)
	if err != nil {
		return doc, err
	}
	defer c.Close()
	rep, err := c.DoStrings("STATS")
	if err != nil {
		return doc, err
	}
	if rep.Kind != ReplyBulk {
		return doc, fmt.Errorf("STATS replied %+v", rep)
	}
	err = json.Unmarshal(rep.Bulk, &doc)
	return doc, err
}

// worker is one load connection's state.
type worker struct {
	id      int
	lat     []float64 // latencies, µs
	sent    uint64
	errs    uint64
	behind  bool // fell behind its open-loop schedule
	died    bool // exited early on a connection/issue error
	lastErr error
}

// RunLoad drives the server at cfg's target rate and returns the
// report. Request latency is measured from each request's scheduled
// send time, so under overload the growing backlog appears as latency,
// not as a silently reduced rate.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	before, err := fetchStats(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("loadgen: server not reachable: %w", err)
	}
	shards := before.Server.Shards
	if shards < 1 {
		shards = 1
	}
	if cfg.CrossFrac > 0 && shards < 2 {
		return nil, fmt.Errorf("loadgen: cross-shard fraction %.2f requires a sharded server (server has %d shard)", cfg.CrossFrac, shards)
	}
	interval := time.Duration(float64(cfg.Conns) / cfg.QPS * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	workers := make([]*worker, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i := 0; i < cfg.Conns; i++ {
		w := &worker{id: i}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(cfg, w, shards, start, deadline, interval)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := fetchStats(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("loadgen: post-run STATS failed: %w", err)
	}

	var all []float64
	var sent, errs uint64
	saturated := false
	died := 0
	var lastErr error
	for _, w := range workers {
		all = append(all, w.lat...)
		sent += w.sent
		errs += w.errs
		saturated = saturated || w.behind
		if w.died {
			died++
		}
		if w.lastErr != nil {
			lastErr = w.lastErr
		}
	}
	if sent == 0 {
		if lastErr != nil {
			return nil, fmt.Errorf("loadgen: no requests completed: %w", lastErr)
		}
		return nil, fmt.Errorf("loadgen: no requests completed")
	}
	sort.Float64s(all)
	commits := after.Machine.Commits - before.Machine.Commits
	aborts := after.Machine.Aborts() - before.Machine.Aborts()
	rep := &LoadReport{
		Kind:        "loadgen",
		Addr:        cfg.Addr,
		Conns:       cfg.Conns,
		Dist:        cfg.Dist,
		KeySpace:    cfg.KeySpace,
		ReadFrac:    cfg.ReadFrac,
		ScanFrac:    cfg.ScanFrac,
		CrossFrac:   cfg.CrossFrac,
		BatchSize:   cfg.BatchSize,
		TargetQPS:   cfg.QPS,
		DurationS:   elapsed.Seconds(),
		Requests:    sent,
		Errors:      errs,
		AchievedQPS: float64(sent) / elapsed.Seconds(),
		Saturated:   saturated,
		P50us:       percentile(all, 0.50),
		P99us:       percentile(all, 0.99),
		P999us:      percentile(all, 0.999),
		MaxUs:       all[len(all)-1],
		Commits:     commits,
		Aborts:      aborts,
	}
	if cfg.Dist == DistZipf {
		rep.ZipfS = cfg.ZipfS
	}
	if commits+aborts > 0 {
		rep.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	if rep.AchievedQPS < 0.9*cfg.QPS {
		rep.Saturated = true
	}
	rep.CrossCommits = after.Server.CrossCommits - before.Server.CrossCommits
	rep.CrossAborts = after.Server.CrossAborts - before.Server.CrossAborts
	if died > 0 {
		// A dead worker stops issuing its share of the schedule: the run
		// cannot have held the target rate and its numbers are suspect.
		rep.WorkersDied = died
		rep.Saturated = true
	}
	if lastErr != nil {
		rep.LastError = lastErr.Error()
	}
	if cfg.Out != nil {
		b, err := json.Marshal(rep)
		if err != nil {
			return rep, err
		}
		if _, err := fmt.Fprintf(cfg.Out, "%s\n", b); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runWorker runs one connection's open-loop schedule.
func runWorker(cfg LoadConfig, w *worker, shards int, start, deadline time.Time, interval time.Duration) {
	c, err := Dial(cfg.Addr)
	if err != nil {
		w.lastErr = err
		w.died = true
		w.errs++
		return
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w.id)*7919))
	var zipf *rand.Zipf
	if cfg.Dist == DistZipf {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, cfg.KeySpace-1)
	}
	// Stagger workers so their schedules interleave instead of pulsing.
	offset := time.Duration(w.id) * interval / time.Duration(cfg.Conns)
	for i := 0; ; i++ {
		sched := start.Add(offset + time.Duration(i)*interval)
		if sched.After(deadline) {
			return
		}
		now := time.Now()
		if sched.After(now) {
			time.Sleep(sched.Sub(now))
		} else if now.Sub(sched) > interval {
			w.behind = true // open-loop backlog: cannot hold the rate
		}
		cmds := buildRequest(cfg, rng, zipf, shards)
		ok, err := issue(c, cmds)
		if err != nil {
			// The connection is gone; stop this worker, but leave the
			// evidence — a silently vanished worker makes the report lie
			// about the offered rate.
			w.lastErr = err
			w.died = true
			w.errs++
			return
		}
		w.sent++
		if !ok {
			w.errs++
		}
		w.lat = append(w.lat, float64(time.Since(sched).Microseconds()))
	}
}

// pickKey draws one key in [1, KeySpace].
func pickKey(cfg LoadConfig, rng *rand.Rand, zipf *rand.Zipf) uint64 {
	if zipf != nil {
		return zipf.Uint64() + 1
	}
	return uint64(rng.Int63n(int64(cfg.KeySpace))) + 1
}

// buildOp builds one random data command.
func buildOp(cfg LoadConfig, rng *rand.Rand, zipf *rand.Zipf) [][]byte {
	return buildOpKey(cfg, rng, pickKey(cfg, rng, zipf))
}

// buildOpKey builds one random data command against a chosen key.
func buildOpKey(cfg LoadConfig, rng *rand.Rand, key uint64) [][]byte {
	ks := strconv.FormatUint(key, 10)
	r := rng.Float64()
	switch {
	case r < cfg.ReadFrac*cfg.ScanFrac:
		return [][]byte{[]byte("SCAN"), []byte(ks), []byte(strconv.Itoa(cfg.ScanCount))}
	case r < cfg.ReadFrac:
		return [][]byte{[]byte("GET"), []byte(ks)}
	default:
		size := valueSizes[rng.Intn(len(valueSizes))]
		val := make([]byte, size)
		for i := range val {
			val[i] = byte('a' + rng.Intn(26))
		}
		return [][]byte{[]byte("PUT"), []byte(ks), val}
	}
}

// buildRequest assembles one request: a single command, a MULTI..EXEC
// group when BatchSize > 1, or — with probability CrossFrac against a
// sharded server — a MULTI..EXEC group whose keys are forced onto at
// least two shards, guaranteeing the request exercises the 2PC path.
func buildRequest(cfg LoadConfig, rng *rand.Rand, zipf *rand.Zipf, shards int) [][][]byte {
	if shards > 1 && cfg.CrossFrac > 0 && rng.Float64() < cfg.CrossFrac {
		return buildCross(cfg, rng, zipf, shards)
	}
	if cfg.BatchSize <= 1 {
		return [][][]byte{buildOp(cfg, rng, zipf)}
	}
	cmds := make([][][]byte, 0, cfg.BatchSize+2)
	cmds = append(cmds, [][]byte{[]byte("MULTI")})
	for i := 0; i < cfg.BatchSize; i++ {
		cmds = append(cmds, buildOp(cfg, rng, zipf))
	}
	cmds = append(cmds, [][]byte{[]byte("EXEC")})
	return cmds
}

// buildCross assembles one guaranteed-cross-shard MULTI..EXEC group of
// max(BatchSize, 2) ops: the first key is drawn normally, the second is
// redrawn until its home shard differs (bounded scan of the key space
// as a last resort — ShardOf is deterministic, so the generator can
// route without asking the server), and the rest are unconstrained.
func buildCross(cfg LoadConfig, rng *rand.Rand, zipf *rand.Zipf, shards int) [][][]byte {
	n := cfg.BatchSize
	if n < 2 {
		n = 2
	}
	k0 := pickKey(cfg, rng, zipf)
	home := shard.ShardOf(k0, shards)
	k1 := pickKey(cfg, rng, zipf)
	for tries := 0; shard.ShardOf(k1, shards) == home && tries < 64; tries++ {
		k1 = pickKey(cfg, rng, zipf)
	}
	for delta := uint64(1); shard.ShardOf(k1, shards) == home; delta++ {
		k1 = k0 + delta // deterministic fallback sweep over adjacent keys
	}
	cmds := make([][][]byte, 0, n+2)
	cmds = append(cmds, [][]byte{[]byte("MULTI")})
	cmds = append(cmds, buildOpKey(cfg, rng, k0))
	cmds = append(cmds, buildOpKey(cfg, rng, k1))
	for i := 2; i < n; i++ {
		cmds = append(cmds, buildOp(cfg, rng, zipf))
	}
	cmds = append(cmds, [][]byte{[]byte("EXEC")})
	return cmds
}

// issue sends one request (pipelined if it is a MULTI group) and
// reports whether every reply was non-error.
func issue(c *Client, cmds [][][]byte) (ok bool, err error) {
	reps, err := c.Pipeline(cmds)
	if err != nil {
		return false, err
	}
	for _, rep := range reps {
		if rep.Kind == ReplyErr {
			return false, nil
		}
	}
	return true, nil
}

// percentile reads the p-quantile from sorted (ascending) samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
