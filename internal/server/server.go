package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// Config parameterizes one server.
type Config struct {
	// Addr is the TCP listen address; ":0" picks a free port.
	Addr string
	// Cores bounds how many requests execute concurrently as simulated
	// threads in one engine batch per shard (each machine's core
	// count). Default 4.
	Cores int
	// Shards partitions the key space across this many engine+machine
	// shards (shard.ShardOf key hashing). Default 1. Every shard count
	// runs the same cluster, coordinator included. A request is routed by
	// the shards its ops touch (a GET, PUT or DEL its key's home shard, a
	// SCAN every shard): one shard runs it as one local transaction
	// there, several commit it through the cross-shard 2PC coordinator.
	Shards int
	// Buckets sizes the NVM hash table. Default 1<<15.
	Buckets int
	// Seed seeds the engine's deterministic RNG, 0 included.
	Seed int64
	// Prepopulate inserts keys 1..Prepopulate before serving.
	Prepopulate int
	// PrepopValueSize sizes prepopulated values (default 64).
	PrepopValueSize int
	// Geometry overrides the Table III machine configuration (tests use
	// a shrunken hierarchy). Cores is always taken from Config.Cores.
	Geometry *mem.Config
	// Options overrides the machine's HTM options (default:
	// core.DefaultOptions with Paranoid off — the server is a service,
	// not a test vehicle).
	Options *core.Options
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Buckets <= 0 {
		c.Buckets = 1 << 15
	}
	if c.PrepopValueSize <= 0 {
		c.PrepopValueSize = 64
	}
	return c
}

// reqKind discriminates engine-loop requests.
type reqKind int

const (
	reqOps   reqKind = iota // single-shard ops as one durable transaction
	reqCross                // multi-shard ops through the 2PC coordinator
	reqStats                // marshal server+machine counters
	reqCrash                // simulated cluster power failure + recovery
)

// request is one unit of work funneled to the engine loop. The loop
// fills results/statsJSON/err and closes done.
type request struct {
	kind      reqKind
	shard     int // reqOps: home shard of every op
	ops       []Op
	results   []OpResult
	applied   bool
	statsJSON []byte
	err       error
	done      chan struct{}
}

// errLostPower is the per-request error for work in flight when a
// simulated power failure struck.
var errLostPower = errors.New("server lost power mid-request; state recovered, retry")

// errShuttingDown rejects work submitted after shutdown began.
var errShuttingDown = errors.New("server shutting down")

// Server owns a long-lived simulated cluster — Config.Shards key-hashed
// engine+machine shards, one by default — and serves the wire protocol
// on a TCP listener. All simulation state (engines, machines, stores,
// the 2PC coordinator) is owned exclusively by the engine-loop
// goroutine; connection handlers communicate with it only through
// requests, so every engine stays the single-threaded world sim.Engine
// requires (shard fan-out inside a wave goes through the harness worker
// pool, one shard per OS thread, never two threads in one shard).
type Server struct {
	cfg     Config
	cluster *shard.Cluster
	shards  []*shard.Shard
	stores  []*Store

	ln         net.Listener
	reqCh      chan *request
	closing    chan struct{}
	loopDone   chan struct{}
	acceptDone chan struct{} // closed when acceptLoop returns
	closeOnce  sync.Once
	closeErr   error

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	start time.Time

	// Engine-loop-owned counters (reported by STATS).
	batches  uint64
	requests uint64
	crashes  uint64

	// Last CRASH drill's recovery summary, summed over the shards
	// (reported by STATS; zero until the first drill).
	recScanned int
	recApplied int
	recPS      sim.Time
}

// New builds the simulated cluster and its durable per-shard stores
// (prepopulated if configured) without listening yet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := core.DefaultOptions()
	opts.Paranoid = false
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	cl := shard.NewServing(shard.Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.Cores,
		Seed:          cfg.Seed,
		Opts:          opts,
		Geom:          cfg.Geometry,
	})
	s := &Server{
		cfg:        cfg,
		cluster:    cl,
		shards:     cl.Shards(),
		reqCh:      make(chan *request, 4*cfg.Cores*cfg.Shards),
		closing:    make(chan struct{}),
		loopDone:   make(chan struct{}),
		acceptDone: make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	for _, sh := range s.shards {
		s.stores = append(s.stores, NewStore(sh.Machine(), cfg.Buckets))
	}
	if cfg.Prepopulate > 0 {
		s.prepopulate()
	}
	return s
}

// prepopulate inserts keys 1..Prepopulate, each on its home shard, and
// persists every shard's formatted image — Store.Prepopulate, spread
// over the shards.
func (s *Server) prepopulate() {
	for k := 1; k <= s.cfg.Prepopulate; k++ {
		s.stores[shard.ShardOf(uint64(k), len(s.shards))].PrepopulateOne(uint64(k), s.cfg.PrepopValueSize)
	}
	for _, st := range s.stores {
		st.m.Store().PersistLiveNVM()
	}
}

// Machine exposes shard 0's machine (tests, recovery checks; with one
// shard, the machine). Callers must not touch it while the server is
// listening — the engine loop owns it.
func (s *Server) Machine() *core.Machine { return s.shards[0].Machine() }

// KV exposes shard 0's durable store (tests). Same ownership caveat as
// Machine.
func (s *Server) KV() *Store { return s.stores[0] }

// Engine exposes shard 0's engine (tests: halt injection before
// Listen). Same ownership caveat as Machine.
func (s *Server) Engine() *sim.Engine { return s.shards[0].Engine() }

// Cluster exposes the shard cluster (tests: per-shard baselines, hook
// installation before Listen). Same ownership caveat as Machine.
func (s *Server) Cluster() *shard.Cluster { return s.cluster }

// Listen binds the configured address and starts serving. It returns
// once the listener is live; Addr then reports the bound address.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.start = time.Now()
	go s.engineLoop()
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close shuts the server down gracefully: stop accepting, sever
// connections (requests already submitted still complete), drain the
// request queue, and run a final log-reclamation pass so the durable
// image carries a fresh WAL checkpoint. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing)
		if s.ln != nil {
			s.closeErr = s.ln.Close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		close(s.reqCh)
		if s.ln != nil {
			<-s.acceptDone
			<-s.loopDone
		}
	})
	return s.closeErr
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal accept error
		}
		s.connMu.Lock()
		select {
		case <-s.closing:
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		go s.handleConn(conn)
	}
}

// engineLoop is the single goroutine that drives the simulation. It
// keeps a loop-local FIFO of accepted requests: the channel is drained
// without blocking into the queue, then the queue's head decides the
// step — a per-shard wave of single-shard batches, or one quiescent
// request (STATS, CRASH, a multi-shard request) alone. Nothing
// is ever re-sent on the public channel, so shutdown cannot race a
// pushback against the channel close (the old requeue-goroutine bug).
// The loop exits when the channel closes and the queue is empty, after
// a final reclamation pass on every shard (the shutdown WAL
// checkpoint).
func (s *Server) engineLoop() {
	defer close(s.loopDone)
	var pending []*request
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			r, ok := <-s.reqCh
			if !ok {
				break
			}
			pending = append(pending, r)
		}
		if open {
		drain:
			for {
				select {
				case r, ok := <-s.reqCh:
					if !ok {
						open = false
						break drain
					}
					pending = append(pending, r)
				default:
					break drain
				}
			}
		}
		pending = s.step(pending)
	}
	// Shutdown: persist committed images in place and checkpoint the
	// redo logs on every shard, so a post-shutdown image recovers
	// instantly.
	for _, sh := range s.shards {
		sh.Machine().ReclaimLogs()
	}
}

// step executes the queue's head — a wave of single-shard ops requests,
// or one quiescent request — and returns the remaining queue.
func (s *Server) step(pending []*request) []*request {
	head := pending[0]
	switch head.kind {
	case reqStats:
		head.statsJSON = s.statsJSON()
		close(head.done)
		return pending[1:]
	case reqCrash:
		s.powerFail()
		close(head.done)
		return pending[1:]
	case reqCross:
		s.runCross(head)
		return pending[1:]
	default:
		return s.runWave(pending)
	}
}

// runWave takes the longest prefix of single-shard ops requests off the
// queue — capped at Cores per shard, leaving excess and everything
// after the first quiescent request queued in order — and runs it as
// one wave: every involved shard executes its group as one session
// batch (one durable transaction per request, each on its own simulated
// thread in conflict domain 0), shards in parallel on the harness
// worker pool. On an injected power failure the wave's unapplied
// requests fail with errLostPower and the cluster recovers before the
// next step.
func (s *Server) runWave(pending []*request) []*request {
	groups := make([][]*request, len(s.shards))
	var taken []*request
	var rest []*request
	for i, r := range pending {
		if r.kind != reqOps {
			rest = append(rest, pending[i:]...)
			break
		}
		if len(groups[r.shard]) >= s.cfg.Cores {
			rest = append(rest, r)
			continue
		}
		groups[r.shard] = append(groups[r.shard], r)
		taken = append(taken, r)
	}
	var active []*shard.Shard
	for _, sh := range s.shards {
		if len(groups[sh.ID()]) > 0 {
			active = append(active, sh)
		}
	}
	s.batches++
	s.requests += uint64(len(taken))
	halted := s.cluster.Fanout(active, func(sh *shard.Shard) bool {
		grp := groups[sh.ID()]
		st := s.stores[sh.ID()]
		bodies := make([]func(*sim.Thread), len(grp))
		for i, r := range grp {
			r := r
			bodies[i] = func(th *sim.Thread) {
				c := sh.Machine().NewCtx(th, 0)
				r.results = st.Apply(c, r.ops)
				r.applied = true
			}
		}
		return sh.Do("serve", bodies...)
	})
	if halted {
		// A crashpoint hook fired mid-wave (test-injected power
		// failure). Recover the cluster, then fail what was lost.
		s.recoverAfterHalt()
		for _, r := range taken {
			if !r.applied {
				r.err = errLostPower
			}
		}
	}
	for _, r := range taken {
		close(r.done)
	}
	return rest
}

// powerFail models an operator-triggered power failure (the CRASH
// command): every shard loses volatile state, the redo logs replay, the
// coordinator's completion pass finishes decided cross-shard
// transactions (shard.Cluster.RecoverServing, which recovers the shards
// in parallel), and the DRAM indexes are rebuilt, each on its shard's
// Fanout worker: a store lives on its shard's machine alone. Runs
// between steps, so no request is in flight.
func (s *Server) powerFail() {
	s.crashes++
	rec := s.cluster.RecoverServing()
	s.recScanned, s.recApplied, s.recPS = 0, 0, 0
	for _, rs := range rec.PerShard {
		s.recScanned += rs.ScannedRecs
		s.recApplied += rs.AppliedLines
		if ps := rs.ScanPS + rs.ReplayPS + rs.PersistPS; ps > s.recPS {
			s.recPS = ps // shards recover in parallel: slowest dominates
		}
	}
	s.cluster.Fanout(s.shards, func(sh *shard.Shard) bool {
		s.stores[sh.ID()].Recover()
		return false
	})
}

// recoverAfterHalt is powerFail for a failure that struck mid-wave: the
// engines halted, so every shard's session must also restart.
func (s *Server) recoverAfterHalt() {
	s.powerFail()
	for _, sh := range s.shards {
		sh.Restart()
	}
}

// statsJSON marshals the STATS reply. The machine half is the cluster's
// totals (shard.Cluster.Result: every shard's counters summed, virtual
// time the latest shard's); with one shard it is that machine's
// counters verbatim.
func (s *Server) statsJSON() []byte {
	res := s.cluster.Result()
	keys := 0
	for i, st := range s.stores {
		keys += st.part.Table.Len(s.shards[i].Machine().Store())
	}
	doc := statsDoc{
		Server: serverStats{
			UptimeS:      time.Since(s.start).Seconds(),
			VirtualS:     res.Elapsed.Seconds(),
			Shards:       len(s.shards),
			Batches:      s.batches,
			Requests:     s.requests,
			Crashes:      s.crashes,
			Keys:         keys,
			CrossCommits: res.CrossCommits,
			CrossAborts:  res.CrossAborts,

			RecoveryScanned: s.recScanned,
			RecoveryApplied: s.recApplied,
			RecoveryPS:      int64(s.recPS),
		},
		Machine: res.Stats,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err))
	}
	return b
}

// statsDoc is the STATS document: the server writes it and the load
// generator reads it back.
type statsDoc struct {
	Server  serverStats `json:"server"`
	Machine stats.Stats `json:"machine"`
}

// serverStats is the server half of the STATS document (the machine
// half is the stats.Stats JSON shared with the experiment records).
type serverStats struct {
	UptimeS      float64 `json:"uptime_s"`
	VirtualS     float64 `json:"virtual_s"`
	Shards       int     `json:"shards"`
	Batches      uint64  `json:"batches"`
	Requests     uint64  `json:"requests"`
	Crashes      uint64  `json:"crashes"`
	Keys         int     `json:"keys"`
	CrossCommits uint64  `json:"cross_commits"`
	CrossAborts  uint64  `json:"cross_aborts"`

	// Last CRASH drill's recovery pass, summed over the shards (the
	// modeled latency takes the slowest shard — they replay in
	// parallel). Zero until the first drill.
	RecoveryScanned int   `json:"recovery_scanned"`
	RecoveryApplied int   `json:"recovery_applied"`
	RecoveryPS      int64 `json:"recovery_ps"`
}

// submit hands one request to the engine loop and waits for it.
func (s *Server) submit(req *request) error {
	req.done = make(chan struct{})
	select {
	case s.reqCh <- req:
	case <-s.closing:
		return errShuttingDown
	}
	<-req.done
	return req.err
}

// submitOps executes ops as one durable transaction, routed by the
// shards they touch (route).
func (s *Server) submitOps(ops []Op) ([]OpResult, error) {
	req := s.route(ops)
	if err := s.submit(req); err != nil {
		return nil, err
	}
	return req.results, nil
}

// route classifies one op batch by the shards its ops touch — a GET,
// PUT or DEL its key's home shard, a SCAN every shard: one shard joins
// that shard's wave, several go through the 2PC coordinator.
func (s *Server) route(ops []Op) *request {
	n := len(s.shards)
	home := shard.ShardOf(ops[0].Key, n)
	for _, op := range ops {
		if op.Kind == OpScan && n > 1 || shard.ShardOf(op.Key, n) != home {
			return &request{kind: reqCross, ops: ops}
		}
	}
	return &request{kind: reqOps, shard: home, ops: ops}
}

// maxScanCount caps one SCAN's result size.
const maxScanCount = 10000

// connState is the per-connection protocol state: the MULTI queue.
type connState struct {
	inMulti  bool
	queued   []Op
	multiErr bool // a queued command failed to parse; EXEC must refuse
}

// flushingConn is a connection as its request reader sees it: before
// each read from the socket it flushes the replies buffered so far.
// The reader reads only when its buffer holds no complete request, so
// the replies to a pipelined burst leave in one write, and a client
// still gets every reply before the server would wait on it, even one
// that sent a partial request or half-closed after sending.
type flushingConn struct {
	net.Conn
	w *bufio.Writer
}

// Read flushes the buffered replies, then reads from the socket.
func (c flushingConn) Read(p []byte) (int, error) {
	if c.w.Buffered() > 0 {
		if err := c.w.Flush(); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

// handleConn runs one connection's request loop. Errors are isolated
// to the connection: parse errors get -ERR replies (framing errors
// additionally close the connection, since the stream position is
// lost), and a panic in command handling closes this connection only.
// Replies are flushed once per read burst (flushingConn) and before
// the connection closes.
func (s *Server) handleConn(conn net.Conn) {
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(flushingConn{conn, w})
	defer s.connWG.Done()
	defer func() {
		recover()     // isolate: a handler bug kills the connection, not the server
		_ = w.Flush() // best effort: the connection closes either way
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	st := &connState{}
	for {
		argv, err := ReadRequest(r)
		if err != nil {
			if IsProtocolError(err) {
				WriteReply(w, Errf("%v", err))
			}
			return // io error (client gone, shutdown) or unsyncable stream
		}
		if len(argv) == 0 {
			continue // blank inline line
		}
		rep, quit := s.dispatch(st, argv)
		if err := WriteReply(w, rep); err != nil || quit {
			return
		}
	}
}

// dispatch executes one command against the connection state,
// returning the reply and whether the connection should close.
func (s *Server) dispatch(st *connState, argv [][]byte) (rep Reply, quit bool) {
	name := strings.ToUpper(string(argv[0]))
	cmd, ok := lookupCommand(name)
	if !ok {
		return Errf("unknown command %q (see SERVING.md)", name), false
	}
	if st.inMulti && !cmd.InMulti {
		switch name {
		case "EXEC", "DISCARD", "QUIT":
			// control commands allowed below
		default:
			return Errf("%s is not allowed inside MULTI", name), false
		}
	}
	switch name {
	case "PING":
		return Reply{Kind: ReplySimple, Str: "PONG"}, false
	case "QUIT":
		return OK(), true
	case "MULTI":
		if st.inMulti {
			return Errf("MULTI calls can not be nested"), false
		}
		st.inMulti, st.queued, st.multiErr = true, nil, false
		return OK(), false
	case "DISCARD":
		if !st.inMulti {
			return Errf("DISCARD without MULTI"), false
		}
		st.inMulti, st.queued, st.multiErr = false, nil, false
		return OK(), false
	case "EXEC":
		if !st.inMulti {
			return Errf("EXEC without MULTI"), false
		}
		ops := st.queued
		bad := st.multiErr
		st.inMulti, st.queued, st.multiErr = false, nil, false
		if bad {
			return Errf("EXECABORT transaction discarded because of previous errors"), false
		}
		if len(ops) == 0 {
			// Nothing queued: answer the empty array directly instead of
			// occupying a simulated core with a zero-op transaction.
			return Reply{Kind: ReplyArray}, false
		}
		results, err := s.submitOps(ops)
		if err != nil {
			return Errf("%v", err), false
		}
		out := Reply{Kind: ReplyArray, Array: make([]Reply, len(ops))}
		for i, op := range ops {
			out.Array[i] = opReply(op, results[i])
		}
		return out, false
	case "STATS":
		req := &request{kind: reqStats}
		if err := s.submit(req); err != nil {
			return Errf("%v", err), false
		}
		return BulkString(req.statsJSON), false
	case "CRASH":
		req := &request{kind: reqCrash}
		if err := s.submit(req); err != nil {
			return Errf("%v", err), false
		}
		return OK(), false
	default: // the data ops: GET PUT SET DEL SCAN
		op, err := parseOp(name, argv)
		if err != nil {
			if st.inMulti {
				st.multiErr = true
			}
			return Errf("%v", err), false
		}
		if st.inMulti {
			st.queued = append(st.queued, op)
			return Reply{Kind: ReplySimple, Str: "QUEUED"}, false
		}
		results, err := s.submitOps([]Op{op})
		if err != nil {
			return Errf("%v", err), false
		}
		return opReply(op, results[0]), false
	}
}

// parseOp builds the store op for one data command.
func parseOp(name string, argv [][]byte) (Op, error) {
	switch name {
	case "GET", "DEL":
		if len(argv) != 2 {
			return Op{}, fmt.Errorf("wrong number of arguments for %s (want: %s key)", name, name)
		}
		k, err := parseKey(argv[1])
		if err != nil {
			return Op{}, err
		}
		kind := OpGet
		if name == "DEL" {
			kind = OpDel
		}
		return Op{Kind: kind, Key: k}, nil
	case "PUT", "SET":
		if len(argv) != 3 {
			return Op{}, fmt.Errorf("wrong number of arguments for %s (want: %s key value)", name, name)
		}
		k, err := parseKey(argv[1])
		if err != nil {
			return Op{}, err
		}
		if len(argv[2]) > MaxBulk {
			return Op{}, fmt.Errorf("value exceeds %d bytes", MaxBulk)
		}
		// ReadRequest hands out fresh argument slices, so the op may
		// keep the value past the dispatch (MULTI queues, engine
		// batches) without a copy.
		return Op{Kind: OpPut, Key: k, Val: argv[2]}, nil
	case "SCAN":
		if len(argv) != 3 {
			return Op{}, fmt.Errorf("wrong number of arguments for SCAN (want: SCAN start count)")
		}
		k, err := parseKey(argv[1])
		if err != nil {
			return Op{}, err
		}
		n, err := strconv.Atoi(string(argv[2]))
		if err != nil || n <= 0 {
			return Op{}, fmt.Errorf("SCAN count %q is not a positive integer", argv[2])
		}
		if n > maxScanCount {
			n = maxScanCount
		}
		return Op{Kind: OpScan, Key: k, N: n}, nil
	default:
		return Op{}, fmt.Errorf("unknown data command %q", name)
	}
}

// opReply renders one op's result as its wire reply.
func opReply(op Op, res OpResult) Reply {
	switch op.Kind {
	case OpGet:
		if !res.Found {
			return BulkString(nil)
		}
		return BulkString(res.Val)
	case OpPut:
		return OK()
	case OpDel:
		if res.Found {
			return Int(1)
		}
		return Int(0)
	case OpScan:
		out := Reply{Kind: ReplyArray, Array: make([]Reply, 0, 2*len(res.Keys))}
		for i, k := range res.Keys {
			out.Array = append(out.Array,
				BulkString([]byte(strconv.FormatUint(k, 10))),
				BulkString(res.Vals[i]))
		}
		return out
	default:
		return Errf("unrenderable op %v", op.Kind)
	}
}

// Client is a minimal protocol client: one connection, synchronous
// request/reply. The load generator, perfbench's serving workloads and
// the tests use it; Dial opens one.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Do sends one command (RESP-framed) and reads its reply.
func (c *Client) Do(args ...[]byte) (Reply, error) {
	if err := WriteRequest(c.w, args); err != nil {
		return Reply{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Reply{}, err
	}
	return ReadReply(c.r)
}

// DoStrings is Do with string arguments.
func (c *Client) DoStrings(args ...string) (Reply, error) {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.Do(bs...)
}

// Pipeline sends several commands before reading any reply — one
// network round trip for the whole group. It returns one reply per
// command.
func (c *Client) Pipeline(cmds [][][]byte) ([]Reply, error) {
	for _, argv := range cmds {
		if err := WriteRequest(c.w, argv); err != nil {
			return nil, err
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make([]Reply, 0, len(cmds))
	for range cmds {
		rep, err := ReadReply(c.r)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Close closes the client connection.
func (c *Client) Close() error { return c.conn.Close() }
