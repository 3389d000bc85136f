package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"uhtm/internal/server"
	"uhtm/internal/shard"
	"uhtm/internal/stats"
)

// servingWorkload is one traffic mix against an in-process server.
type servingWorkload struct {
	name        string
	shards      int
	prepopulate int     // keys 1..prepopulate exist before the first request
	readFrac    float64 // GET share of ops; the rest are PUTs
	valueSizes  []int   // PUT value sizes, drawn uniformly
	crossFrac   float64 // share of requests sent as 2-key cross-shard MULTI…EXEC
	drillReqs   int     // closed-loop requests before each CRASH drill
	latReqs     int     // closed-loop requests in each latency block p50_us pools
	refRate     float64 // fixed open-loop rate p99_us is measured at
	ladder      []float64
	limit       time.Duration // p99 latency limit a rate must meet to count as sustained
}

// conns is the connection count: the load comes from one process and
// never has more connections than the host has processors.
const conns = 2

// cores is each shard's simulated core count, the server's default.
const cores = 4

// drills is the number of drill rounds per run, each ending in a CRASH
// drill; a segment of the reference window runs between each two.
const drills = 5

var kvWrite2PC = servingWorkload{
	name:        "kv-write-2pc",
	shards:      4,
	prepopulate: 65536,
	readFrac:    0.2,
	valueSizes:  []int{256, 1024, 4096},
	crossFrac:   0.3,
	drillReqs:   3000,
	latReqs:     9000,
	refRate:     2000,
	ladder:      []float64{1000, 2000, 4000, 8000, 16000},
	limit:       250 * time.Millisecond,
}

func runKVWrite2PC(o opts, out *result) error { return runServing(kvWrite2PC, o, out) }

// statsDoc is the part of a STATS reply the benchmark reads.
type statsDoc struct {
	Server struct {
		VirtualS        float64 `json:"virtual_s"`
		Shards          int     `json:"shards"`
		Batches         uint64  `json:"batches"`
		Requests        uint64  `json:"requests"`
		CrossCommits    uint64  `json:"cross_commits"`
		CrossAborts     uint64  `json:"cross_aborts"`
		RecoveryScanned int     `json:"recovery_scanned"`
		RecoveryApplied int     `json:"recovery_applied"`
		RecoveryPS      int64   `json:"recovery_ps"`
	} `json:"server"`
	Machine stats.Stats `json:"machine"`
}

func fetchStats(c *server.Client) (statsDoc, error) {
	var doc statsDoc
	rep, err := c.DoStrings("STATS")
	if err != nil {
		return doc, fmt.Errorf("STATS: %w", err)
	}
	if rep.Kind != server.ReplyBulk {
		return doc, fmt.Errorf("STATS replied %+v", rep)
	}
	if err := json.Unmarshal(rep.Bulk, &doc); err != nil {
		return doc, fmt.Errorf("decode STATS: %w", err)
	}
	return doc, nil
}

// session is one live server and the benchmark's connections to it.
type session struct {
	srv   *server.Server
	conns []*server.Client
}

func (w servingWorkload) open(seed int64) (*session, error) {
	srv := server.New(server.Config{
		Shards:      w.shards,
		Cores:       cores,
		Prepopulate: w.prepopulate,
		Seed:        seed,
	})
	if err := srv.Listen(); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &session{srv: srv}
	for i := 0; i < conns; i++ {
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func (s *session) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.srv.Close()
}

// runServing is one serving workload: set-up; closed-loop drill rounds,
// each ending in a CRASH drill, with closed-loop latency blocks and the
// open loop at the reference rate between them; and — on an untraced
// run — the search for the highest sustained rate.
func runServing(w servingWorkload, o opts, out *result) error {
	// The server's own engine seed is fixed: --seed shapes the traffic,
	// not the simulated machine.
	const engineSeed = 42
	setups := 5
	if o.traced {
		setups = 1
	}
	var setupS []float64
	var s *session
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		s, err = w.open(engineSeed)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setups-1 {
			s.close()
		}
		runtime.GC() // the closed server's heap is garbage; do not carry it into the next set-up or the run
	}
	defer s.close()
	out.set("setup_s", medianOf(setupS))

	keys := keyMap(o.seed, w.prepopulate, w.shards)
	states := make([]*connState, conns)
	for c := range states {
		states[c] = newConnState(w, c, keys)
	}

	// The fixed part of the run alternates drill rounds and segments of
	// the reference window, with a latency block before and after each
	// segment. This host's speed flips between a fast and a slow mode
	// every few seconds; spreading every repeated sample over the run
	// keeps its median off whichever mode one stretch happened to be in.
	var work time.Duration
	var recoverMS, lat []float64
	var rec statsDoc
	drill := func(d int) error {
		took, ms, st, err := w.drillRound(s, states, d, out)
		work += took
		recoverMS = append(recoverMS, ms)
		rec = st
		return err
	}
	// Latency: closed-loop blocks, one request outstanding per
	// connection, timed from send to reply. An open loop below the knee
	// leaves the processors idle between requests, and on a shared
	// virtual machine waking an idle processor costs as much as serving
	// the request: over four runs the open-loop p50 at 2,000/s read
	// 278–896 µs while the closed loop's read 201–237 µs.
	latency := func() {
		runtime.GC()
		start := time.Now()
		lat = append(lat, w.closedLoop(s, states, w.latReqs/conns, out)...)
		work += time.Since(start)
	}
	// Reference rate: the open loop, one segment between each two drill
	// rounds, 40% of the run in all. Its p99 comes from log-reclamation
	// pauses a few seconds apart, which the segments pool.
	ref := &stepResult{}
	var windows []statsWindow
	segDur := time.Duration(float64(o.seconds) * 0.4 / (drills - 1) * float64(time.Second))
	segment := func() error {
		before, err := fetchStats(s.conns[0])
		if err != nil {
			return err
		}
		st, err := runOpenLoop(s.conns, buildReqs(w, states, w.refRate, segDur), w.refRate, 2*time.Second)
		if err != nil {
			return err
		}
		countStep(out, st)
		ref.lat = append(ref.lat, st.lat...)
		ref.late = append(ref.late, st.late...)
		after, err := fetchStats(s.conns[0])
		windows = append(windows, statsWindow{before, after})
		return err
	}
	for d := 0; d < drills; d++ {
		if err := drill(d); err != nil {
			return err
		}
		if d == drills-1 {
			break
		}
		latency()
		if err := segment(); err != nil {
			return err
		}
		latency()
	}
	out.set("wall_s", work.Seconds())
	out.set("recover_ms", medianOf(recoverMS))
	out.set("core.recovery_scanned", float64(rec.Server.RecoveryScanned))
	out.set("core.recovery_applied", float64(rec.Server.RecoveryApplied))
	out.set("core.recovery_sim_us", float64(rec.Server.RecoveryPS)/1e6)
	out.set("p50_us", quantile(lat, 0.5))
	out.set("p99_us", quantile(ref.lat, 0.99))
	out.set("gen.late_p50_us", quantile(ref.late, 0.5))
	out.set("gen.late_p99_us", quantile(ref.late, 0.99))
	fmt.Fprintf(os.Stderr, "%s: CRASH drills ms %v; closed loop: %d samples, p50 %.1f µs; %d samples at %.0f/s: p50 %.1f µs, p99 %.0f µs; generator late p50 %.2f µs\n",
		w.name, roundAll(recoverMS, 1), len(lat), quantile(lat, 0.5), len(ref.lat), w.refRate, quantile(ref.lat, 0.5), quantile(ref.lat, 0.99), quantile(ref.late, 0.5))
	setServerDeltas(out, windows)
	// The capacity search's work depends on where it lands; memory is
	// measured over the fixed phases only.
	out.set("peak_rss_mb", peakRSSMB())

	if !o.traced {
		stepDur := time.Duration(float64(o.seconds) * 0.04 * float64(time.Second))
		maxQPS, err := w.searchMaxQPS(s, states, stepDur, out)
		if err != nil {
			return err
		}
		out.set("max_qps", maxQPS)
	}

	// Layer getters: the engine loop owns every machine until Close.
	last, err := fetchStats(s.conns[0])
	if err != nil {
		return err
	}
	served := float64(last.Server.Requests + last.Server.CrossCommits + last.Server.CrossAborts)
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.srv.Close()
	final := s.srv.Cluster()
	var dispatches, redo, ckpt, commits float64
	for _, sh := range final.Shards() {
		dispatches += float64(sh.Engine().Dispatches())
		m := sh.Machine()
		commits += float64(m.Stats().Commits)
		for c := 0; c < cores; c++ {
			redo += float64(m.RedoLog(c).Head())
		}
		ckpt += float64(m.CkptLog().Head())
	}
	commits += float64(final.CrossCommits())
	out.set("sim.dispatches_per_req", dispatches/served)
	out.set("wal.redo_records_per_commit", redo/commits)
	out.set("wal.ckpt_records", ckpt)
	if o.traced {
		out.zero(gridOnly)
		return runProbes(out)
	}
	return nil
}

// countStep folds one open-loop step's checks into the run's counts.
func countStep(out *result, st *stepResult) {
	out.ok(st.sent - st.failed)
	for i := 0; i < st.failed; i++ {
		err := fmt.Errorf("request failed")
		if i < len(st.errs) {
			err = st.errs[i]
		}
		out.fail("%v", err)
	}
}

// statsWindow is the STATS before and after one reference segment.
type statsWindow struct{ before, after statsDoc }

// setServerDeltas sets the metrics read from the STATS differences over
// the reference segments. STATS machine counters exclude cross-shard
// transactions, which the server half reports separately.
func setServerDeltas(out *result, ws []statsWindow) {
	var d stats.Stats
	var requests, batches, cross, crossAborts uint64
	var virt, threadS float64
	for _, w := range ws {
		a, b := w.before, w.after
		d.Commits += b.Machine.Commits - a.Machine.Commits
		for i := range d.AbortsBy {
			d.AbortsBy[i] += b.Machine.AbortsBy[i] - a.Machine.AbortsBy[i]
		}
		d.Overflows += b.Machine.Overflows - a.Machine.Overflows
		d.SigChecks += b.Machine.SigChecks - a.Machine.SigChecks
		d.SlowPathWait += b.Machine.SlowPathWait - a.Machine.SlowPathWait
		requests += b.Server.Requests - a.Server.Requests
		batches += b.Server.Batches - a.Server.Batches
		cross += b.Server.CrossCommits - a.Server.CrossCommits
		crossAborts += b.Server.CrossAborts - a.Server.CrossAborts
		v := b.Server.VirtualS - a.Server.VirtualS
		virt += v
		threadS += v * cores * float64(b.Server.Shards)
	}
	commits, aborts := float64(d.Commits), float64(d.Aborts())
	crossF, crossAbortsF := float64(cross), float64(crossAborts)
	out.set("sim_ktx_per_s", ratio(commits+crossF, virt)/1e3)
	out.set("server.batch_size", ratio(float64(requests), float64(batches)))
	out.set("server.abort_rate", ratio(aborts+crossAbortsF, commits+aborts+crossF+crossAbortsF))
	out.set("sim.virtual_us_per_req", ratio(virt*1e6, float64(requests)+crossF+crossAbortsF))
	out.set("shard.cross_share", ratio(crossF, commits+crossF))
	out.set("shard.cross_abort_rate", ratio(crossAbortsF, crossF+crossAbortsF))
	setStatsShares(out, &d, threadS)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// drillRound runs drill round d: drillReqs closed-loop requests from
// the connections, a CRASH drill and a read-back of every key a
// connection wrote. It returns the round's host time (the read-back
// excluded: it is a check, not work), the drill's round trip in ms and
// the STATS after the drill.
func (w servingWorkload) drillRound(s *session, states []*connState, d int, out *result) (time.Duration, float64, statsDoc, error) {
	var st statsDoc
	start := time.Now()
	w.closedLoop(s, states, w.drillReqs/conns, out)
	t0 := time.Now()
	rep, err := s.conns[0].DoStrings("CRASH")
	ms := float64(time.Since(t0)) / 1e6
	took := time.Since(start)
	if err != nil {
		return took, ms, st, fmt.Errorf("CRASH: %w", err)
	}
	if rep.Kind == server.ReplyErr {
		out.fail("CRASH drill %d: %s", d, rep.Str)
	} else {
		out.ok(1)
	}
	if err := readBack(s, states, out); err != nil {
		return took, ms, st, err
	}
	st, err = fetchStats(s.conns[0])
	return took, ms, st, err
}

// closedLoop has every connection send n requests back to back and
// returns each request's round trip in µs.
func (w servingWorkload) closedLoop(s *session, states []*connState, n int, out *result) []float64 {
	var wg sync.WaitGroup
	results := make([][2]int, len(s.conns))
	errs := make([]error, len(s.conns))
	lats := make([][]float64, len(s.conns))
	for c, conn := range s.conns {
		wg.Add(1)
		go func(c int, conn *server.Client) {
			defer wg.Done()
			lats[c] = make([]float64, 0, n)
			for i := 0; i < n; i++ {
				req := states[c].next()
				cmds := req.cmds()
				t0 := time.Now()
				reps, err := conn.Pipeline(cmds)
				lats[c] = append(lats[c], float64(time.Since(t0))/1e3)
				if err == nil {
					err = req.check(reps)
				}
				if err != nil {
					results[c][1]++
					if errs[c] == nil {
						errs[c] = err
					}
				} else {
					results[c][0]++
				}
			}
		}(c, conn)
	}
	wg.Wait()
	var lat []float64
	for c := range results {
		out.ok(results[c][0])
		for i := 0; i < results[c][1]; i++ {
			out.fail("closed-loop request: %v", errs[c])
		}
		lat = append(lat, lats[c]...)
	}
	return lat
}

// readBack checks, after a CRASH drill, that every key a connection
// wrote reads back as its last acknowledged value.
func readBack(s *session, states []*connState, out *result) error {
	const chunk = 256
	type tally struct {
		ok  int
		bad []string
		err error
	}
	tallies := make([]tally, len(s.conns))
	var wg sync.WaitGroup
	for c, conn := range s.conns {
		wg.Add(1)
		go func(t *tally, st *connState, conn *server.Client) {
			defer wg.Done()
			keys := make([]uint64, 0, len(st.acked))
			for k := range st.acked {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for len(keys) > 0 {
				n := min(chunk, len(keys))
				cmds := make([][][]byte, n)
				for i, k := range keys[:n] {
					cmds[i] = [][]byte{[]byte("GET"), []byte(strconv.FormatUint(k, 10))}
				}
				reps, err := conn.Pipeline(cmds)
				if err != nil {
					t.err = fmt.Errorf("read-back: %w", err)
					return
				}
				for i, k := range keys[:n] {
					if reps[i].Kind != server.ReplyBulk || !bytes.Equal(reps[i].Bulk, st.acked[k]) {
						t.bad = append(t.bad, fmt.Sprintf("read-back of key %d after CRASH: got %d bytes, want the last acknowledged %d", k, len(reps[i].Bulk), len(st.acked[k])))
					} else {
						t.ok++
					}
				}
				keys = keys[n:]
			}
		}(&tallies[c], states[c], conn)
	}
	wg.Wait()
	for _, t := range tallies {
		if t.err != nil {
			return t.err
		}
		out.ok(t.ok)
		for _, msg := range t.bad {
			out.fail("%s", msg)
		}
	}
	return nil
}

// buildReqs draws an open-loop step's requests: rate × dur of them,
// request i from connection i mod conns's generator (the connection it
// will go out on).
func buildReqs(w servingWorkload, states []*connState, rate float64, dur time.Duration) []genRequest {
	n := int(rate * dur.Seconds())
	reqs := make([]genRequest, n)
	for i := range reqs {
		reqs[i] = states[i%len(states)].next()
	}
	return reqs
}

// searchMaxQPS finds the highest offered rate whose p99 meets the limit
// with no growing backlog: it climbs the ladder to the first failing
// rate, then bisects between it and the last passing one to within 5%.
func (w servingWorkload) searchMaxQPS(s *session, states []*connState, stepDur time.Duration, out *result) (float64, error) {
	var err error
	trial := func(rate float64) bool {
		if err != nil {
			return false
		}
		var st *stepResult
		st, err = runOpenLoop(s.conns, buildReqs(w, states, rate, stepDur), rate, 4*w.limit)
		if err != nil {
			return false
		}
		countStep(out, st)
		ok := !st.backlog(w.limit) && quantile(st.lat, 0.99) <= float64(w.limit.Microseconds()) && st.failed == 0
		fmt.Fprintf(os.Stderr, "%s: %.0f/s: p50 %.0f p99 %.0f µs, backlog %v: pass %v\n", w.name, rate, quantile(st.lat, 0.5), quantile(st.lat, 0.99), st.backlog(w.limit), ok)
		return ok
	}
	// A rate fails only when two trials in a row fail: a single host
	// stall can push one short step's p99 over the limit.
	pass := func(rate float64) bool { return trial(rate) || trial(rate) }
	lo, hi := 0.0, 0.0
	for _, r := range w.ladder {
		if !pass(r) {
			hi = r
			break
		}
		lo = r
	}
	if hi == 0 || lo == 0 {
		return lo, err // every rung passed (the top one is reported) or none did (0)
	}
	for (hi-lo)/lo > 0.05 && err == nil {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, err
}

// The traffic's shape — op kinds, value sizes, which requests cross
// shards, and each key's home shard and owning connection — comes from
// shapeSeed, so every run offers the server the same sequence of log
// appends and reclamation pauses; --seed picks which keys carry it. Runs
// with different seeds differ in keys and values, not in load: with the
// shape drawn from --seed too, p99 moved by a third between seeds with
// how the four shards' rings happened to fill together.
const shapeSeed = 1

// keyMap returns a permutation of keys 1..n, seeded by seed, that keeps
// every key's home shard and owning connection.
func keyMap(seed int64, n, shards int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]uint64, n+1)
	for sh := 0; sh < shards; sh++ {
		for owner := 0; owner < conns; owner++ {
			var class []uint64
			for k := uint64(1); k <= uint64(n); k++ {
				if shard.ShardOf(k, shards) == sh && int(k%conns) == owner {
					class = append(class, k)
				}
			}
			to := append([]uint64(nil), class...)
			rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
			for i, k := range class {
				perm[k] = to[i]
			}
		}
	}
	return perm
}

// connState generates one connection's requests and remembers what it
// wrote. A connection writes only keys it owns (key mod conns = its
// index), so after a drill each key's last acknowledged value is known.
type connState struct {
	w     servingWorkload
	id    int
	rng   *rand.Rand // the traffic's shape
	keys  []uint64   // keyMap: shape key → key sent
	seq   uint64
	acked map[uint64][]byte
}

func newConnState(w servingWorkload, id int, keys []uint64) *connState {
	return &connState{w: w, id: id, rng: rand.New(rand.NewSource(shapeSeed + int64(id))), keys: keys, acked: map[uint64][]byte{}}
}

// key draws a shape key, uniform over the key space.
func (st *connState) key() uint64 {
	return uint64(st.rng.Int63n(int64(st.w.prepopulate))) + 1
}

// owned maps shape key k to the nearest key this connection owns.
func (st *connState) owned(k uint64) uint64 {
	k = k - k%conns + uint64(st.id)
	if k == 0 {
		k += conns
	}
	for k > uint64(st.w.prepopulate) {
		k -= conns
	}
	return k
}

// op draws one data command — a GET of k, or a PUT of the owned key
// ownedKey — as a builder of the command and the check of its reply.
// A PUT's value is built when it is sent and remembered once acked.
func (st *connState) op(k uint64, ownedKey uint64) (func() [][]byte, func(server.Reply) error) {
	if st.rng.Float64() < st.w.readFrac {
		return func() [][]byte {
				return [][]byte{[]byte("GET"), []byte(strconv.FormatUint(k, 10))}
			}, func(r server.Reply) error {
				if r.Kind != server.ReplyBulk || !embedsKey(r.Bulk, k) {
					return fmt.Errorf("GET %d returned %v (%d bytes) without its key", k, r.Kind, len(r.Bulk))
				}
				return nil
			}
	}
	st.seq++
	seq, size := st.seq, st.w.valueSizes[st.rng.Intn(len(st.w.valueSizes))]
	var v []byte
	return func() [][]byte {
			v = value(ownedKey, seq, size)
			return [][]byte{[]byte("PUT"), []byte(strconv.FormatUint(ownedKey, 10)), v}
		}, func(r server.Reply) error {
			if r.Kind != server.ReplySimple || r.Str != "OK" {
				return fmt.Errorf("PUT %d replied %v %q", ownedKey, r.Kind, r.Str)
			}
			st.acked[ownedKey] = v
			return nil
		}
}

// next draws the connection's next request.
func (st *connState) next() genRequest {
	if st.w.crossFrac > 0 && st.rng.Float64() < st.w.crossFrac {
		return st.cross()
	}
	k := st.key()
	cmd, check := st.op(st.keys[k], st.keys[st.owned(k)])
	return genRequest{
		cmds:  func() [][][]byte { return [][][]byte{cmd()} },
		check: func(reps []server.Reply) error { return check(reps[0]) },
	}
}

// cross draws a MULTI…EXEC of two ops on owned keys with different home
// shards, so the server must commit it through 2PC. keyMap keeps each
// key's shard, so the keys sent differ in shard too.
func (st *connState) cross() genRequest {
	k0 := st.owned(st.key())
	k1 := st.owned(st.key())
	for shard.ShardOf(k1, st.w.shards) == shard.ShardOf(k0, st.w.shards) {
		k1 = st.owned(st.key())
	}
	c0, check0 := st.op(st.keys[k0], st.keys[k0])
	c1, check1 := st.op(st.keys[k1], st.keys[k1])
	return genRequest{
		cmds: func() [][][]byte { return [][][]byte{{[]byte("MULTI")}, c0(), c1(), {[]byte("EXEC")}} },
		check: func(reps []server.Reply) error {
			if len(reps) != 4 || reps[0].Str != "OK" || reps[1].Str != "QUEUED" || reps[2].Str != "QUEUED" {
				return fmt.Errorf("MULTI…EXEC framing replies %+v", reps)
			}
			ex := reps[3]
			if ex.Kind != server.ReplyArray || len(ex.Array) != 2 {
				return fmt.Errorf("EXEC replied %v %q", ex.Kind, ex.Str)
			}
			if err := check0(ex.Array[0]); err != nil {
				return err
			}
			return check1(ex.Array[1])
		},
	}
}

// value builds a PUT value that embeds its key and the writer's
// sequence number.
func value(k, seq uint64, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, k)
	binary.LittleEndian.PutUint64(v[8:], seq)
	for i := 16; i < size; i++ {
		v[i] = byte(k + uint64(i))
	}
	return v
}

// embedsKey reports whether v is a value of key k: one the benchmark
// wrote (key in the first eight bytes) or the server's prepopulated
// value for k (byte i = k + i).
func embedsKey(v []byte, k uint64) bool {
	if len(v) >= 16 && binary.LittleEndian.Uint64(v) == k {
		return true
	}
	if len(v) == 0 {
		return false
	}
	for i, b := range v {
		if b != byte(k+uint64(i)) {
			return false
		}
	}
	return true
}
