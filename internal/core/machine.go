// Package core implements the UHTM machine of Section IV, plus the three
// comparison systems of Section V behind the same API: LLC-Bounded
// (DHTM-like), Signature-Only (Bulk/LogTM-SE-like), UHTM itself
// (staged detection, with and without signature isolation), and the
// Ideal unbounded HTM (perfect off-chip conflict detection).
//
// One Machine is one simulated 16-core node: per-core L1s, a shared LLC,
// the coherence directory with Tx-fields, per-core read/write address
// signatures, the DRAM cache and hardware undo/redo logs, the
// transaction status structure (TSS), and per-conflict-domain fallback
// locks for the Algorithm-1 slow path.
package core

import (
	"fmt"
	"sort"

	"uhtm/internal/cache"
	"uhtm/internal/coherence"
	"uhtm/internal/dramcache"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/wal"
)

// Detection selects the conflict-detection scheme — the axis of Table I.
type Detection int

const (
	// DetectLLCBounded: cache-coherence detection only; a transactional
	// line leaving the LLC is a capacity abort (DHTM [30]).
	DetectLLCBounded Detection = iota
	// DetectSignatureOnly: every access of every transaction goes into
	// its signatures and every request is checked against all of them
	// (Bulk [12], LogTM-SE [64] extended to NVM).
	DetectSignatureOnly
	// DetectStaged: UHTM — directory on-chip, signatures only for
	// LLC-overflowed lines, checked only by LLC-missed requests.
	DetectStaged
	// DetectIdeal: precise unbounded detection, no false positives.
	DetectIdeal
)

// String names the detection mode for tables and logs.
func (d Detection) String() string {
	switch d {
	case DetectLLCBounded:
		return "LLC-Bounded"
	case DetectSignatureOnly:
		return "Signature-Only"
	case DetectStaged:
		return "UHTM"
	case DetectIdeal:
		return "Ideal"
	default:
		return fmt.Sprintf("Detection(%d)", int(d))
	}
}

// DRAMLogKind selects version management for LLC-overflowed DRAM lines —
// the undo/redo comparison of Figure 10.
type DRAMLogKind int

const (
	// DRAMUndo: eager — old value to the log at eviction, in-place
	// update, fast commit, log-walk on abort (UHTM's choice).
	DRAMUndo DRAMLogKind = iota
	// DRAMRedo: lazy — new value stays in the log, reads of overflowed
	// lines pay an indirection, commit copies values in place.
	DRAMRedo
)

// String names the DRAM-log kind for logs and traces.
func (k DRAMLogKind) String() string {
	if k == DRAMUndo {
		return "undo"
	}
	return "redo"
}

// Options configures one Machine.
type Options struct {
	Detect    Detection
	SigBits   int         // signature size in bits (staged/signature-only)
	Isolation bool        // confine signature checks to the conflict domain
	DRAMLog   DRAMLogKind // version management for overflowed DRAM lines

	MaxRetries int // fast-path attempts before falling back to the lock

	// Aging replaces the requester-wins/requester-loses tie-break with
	// an age-based policy: the younger transaction (higher ID) aborts.
	// The paper leaves the cyclic-abort livelock of requester policies
	// to future work ([2], [4], [51], [65]); aging is the classic
	// remedy, provided here as an ablation.
	Aging bool

	// NoDRAMCache removes the DRAM cache between LLC and NVM (the [28]
	// substrate): early-evicted persistent lines are re-read at NVM
	// latency instead of DRAM latency. Ablation for the hybrid logging
	// substrate's value.
	NoDRAMCache bool

	// SyncEvery controls scheduler-yield granularity: a thread yields to
	// the virtual-time scheduler every SyncEvery-th memory access
	// (default 1 = perfectly ordered interleaving). Larger values batch
	// a thread's accesses between yields — bounded causality skew traded
	// for simulation speed on the full-size figure runs. Determinism is
	// unaffected.
	SyncEvery int

	// Paranoid enables ground-truth validation on every access: a real
	// overlap between active same-domain transactions that the
	// configured detection scheme fails to report panics immediately.
	// Tests run with it on; benchmarks may turn it off.
	Paranoid bool

	// TrackCommits retains per-commit write images so tests can check
	// that the final memory state equals a serial replay in commit
	// order. Memory-hungry; off for benchmarks.
	TrackCommits bool

	// ReserveLogArea carves this many bytes off the top of the NVM log
	// area before the redo rings are laid out, leaving [NVMLogBase +
	// LogAreaSize - ReserveLogArea, NVMLogBase + LogAreaSize) to the
	// caller. internal/shard places its coordinator decision log there.
	// Zero (the default) keeps the original layout byte-identical.
	ReserveLogArea mem.Addr
}

// DefaultOptions returns UHTM with the paper's preferred configuration
// (staged detection, 4k-bit signatures, isolation on, undo for DRAM).
func DefaultOptions() Options {
	return Options{
		Detect:     DetectStaged,
		SigBits:    signature.Bits4K,
		Isolation:  true,
		DRAMLog:    DRAMUndo,
		MaxRetries: 8,
		Paranoid:   true,
	}
}

// Latencies groups the protocol costs that are not raw-medium accesses.
// Defaults model pipelined hardware paths; they matter only in so far as
// every compared system shares them.
type Latencies struct {
	RedoIssue     sim.Time // per redo-log record issued at commit
	FlushPerLine  sim.Time // per write-set line flushed at commit
	AbortPerLine  sim.Time // per on-chip line invalidated at abort
	PipelineFlush sim.Time // fixed abort cost
	BackoffBase   sim.Time // exponential backoff base
	BackoffCap    sim.Time
	// StreamLine is the per-line cost of a *streamed* miss: bulk
	// value reads/writes run behind hardware prefetchers at bandwidth,
	// not at per-miss latency (this is what makes a hash-table put of a
	// large value much faster than pointer chasing the same number of
	// lines).
	StreamLine sim.Time
}

// DefaultLatencies returns the standard protocol costs.
func DefaultLatencies() Latencies {
	return Latencies{
		RedoIssue:     200 * sim.Picosecond,
		FlushPerLine:  5 * sim.Nanosecond,
		AbortPerLine:  2 * sim.Nanosecond,
		PipelineFlush: 20 * sim.Nanosecond,
		BackoffBase:   150 * sim.Nanosecond,
		BackoffCap:    20 * sim.Microsecond,
		StreamLine:    8 * sim.Nanosecond,
	}
}

// txStatus is one TSS entry (Section IV-E): transaction ID, abort flag
// (with the cause the aborter recorded), and the overflow bit.
type txStatus struct {
	id         uint64
	core       int
	domain     int
	abortFlag  bool
	abortCause stats.AbortCause
	// abortEnemy/abortEnemyCore identify the transaction whose conflict
	// set the abort flag (trace arrows, abort-chain depth);
	// abortEnemyCore is -1 when there is no enemy (explicit aborts,
	// lock acquisitions).
	abortEnemy     uint64
	abortEnemyCore int
	overflowed     bool
	slowPath       bool
}

// committedTx is retained when Options.TrackCommits is set: enough to
// replay commits serially and compare memory images.
type committedTx struct {
	ID     uint64
	Domain int
	Writes map[mem.Addr]mem.Line // line → image at commit
}

// Machine is one simulated node.
type Machine struct {
	cfg  mem.Config
	opts Options
	lat  Latencies
	eng  *sim.Engine

	store *mem.Store
	l1    []*cache.Cache
	llc   *cache.Cache
	// l1Presence counts the lines resident in all L1s together: a zero
	// counter lets the inclusive-invalidation snoop of an LLC victim
	// skip the L1s altogether.
	l1Presence *cache.Presence
	dcache     *dramcache.Cache
	dir        *coherence.Directory

	undoRings *wal.Rings // DRAM log area, per core
	redoRings *wal.Rings // NVM log area, per core

	// ckptAddr is the durable checkpoint cell: the first line of the NVM
	// log area. It holds 1 + the ckptLog ring sequence of the latest
	// complete fuzzy checkpoint record group (0 = no checkpoint yet).
	// Recovery decodes that group for the low-water LSN and ignores
	// commit records at or below it — they describe data already
	// persisted in place, and replaying a stale survivor would regress a
	// line past a newer truncated commit.
	ckptAddr mem.Addr
	// ckptLog is the dedicated durable ring the fuzzy checkpoint record
	// groups live on, right after the cell. Sized for three full groups
	// (ckptRingBytes) so the previous complete checkpoint always
	// survives a torn write of the current one.
	ckptLog *wal.Log
	// ckptSeq numbers checkpoints; lastCkptBegin is the previous group's
	// begin sequence (kept live across checkpoints so each pass can
	// truncate the group before it). ckptActScratch is the reusable
	// active-transaction-table buffer.
	ckptSeq        uint64
	lastCkptBegin  uint64
	ckptActScratch []wal.CkptActive

	// prepareResolver, when set, is consulted by incremental reclamation
	// for record groups that carry a 2PC prepare mark but no local
	// decision: it reports whether the group's fate is durably decided
	// elsewhere (coordinator decision log or resolution cell), making the
	// records disposable. It must consult durable facts only. Nil keeps
	// prepared-but-undecided groups on the ring.
	prepareResolver func(txID uint64) bool

	txCounter  uint64
	lsnCounter uint64 // global commit sequence (log-serialization order)
	byCore     []*Tx  // current transaction per core (nil if none)
	// activeCores has bit c set while core c runs an unfinished
	// transaction, so activeInOrder visits only live cores.
	activeCores []uint64
	// txPool holds each core's reusable Tx object (one live transaction
	// per core; only that core's thread begins transactions on it, so
	// the slot is recycled strictly after the previous attempt unwound).
	txPool []*Tx

	locks map[int]*domainLock // fallback lock per conflict domain

	stats       *stats.Stats
	domainStats map[int]*stats.Stats

	commitLog []committedTx

	// coreDomain maps each core to the conflict domain of the software
	// running on it (-1 when unregistered); non-transactional accesses
	// inherit it for signature-isolation scoping.
	coreDomain []int

	// pendingEvicts queues LLC victims during a fill so overflow
	// handling runs after the cache arrays are quiescent. evictHead
	// indexes the next victim to drain; the slice is re-sliced to keep
	// its capacity once drained.
	pendingEvicts []cache.Eviction
	evictHead     int

	// Sticky check-signature bits: on-chip lines that matched an
	// off-chip signature at fill time and therefore keep being checked
	// against signatures — the reconstruction of a sticky "check
	// signatures" directory bit that keeps the staged scheme sound after
	// re-fetches. A line is sticky when its page slot carries the
	// current stickyGen; clearing all bits is one generation bump.
	// stickyAny short-circuits probes while no bit is set.
	stickyGen   uint32
	stickyPages []*stickyPage
	stickyAny   bool

	activeScratch []*Tx // reusable buffer for activeInOrder
	scopeScratch  []*Tx // reusable buffer for probeScope

	// polluteAddrs holds the addresses of the PolluteLLC batch in
	// progress; it is sized by the first batch and reused after.
	polluteAddrs []mem.Addr

	// The pendingNVM set holds, per committed NVM line, the exact image
	// at the latest commit that wrote it. Log reclamation persists these
	// images before dropping redo records, so the durable update can
	// never pick up a newer *uncommitted* in-place write. pendingPages
	// maps line index → 1-based position in pendingAddrs/pendingImgs
	// (0 = absent); persistScratch is the reusable sort buffer for the
	// deterministic drain order.
	pendingPages   []*pendingPage
	pendingAddrs   []mem.Addr
	pendingImgs    []mem.Line
	persistScratch []mem.Addr

	// tr is the engine world's event recorder (nil = tracing disabled);
	// cached here so hot paths pay one pointer test. abortDepth tracks,
	// per core, the depth of the abort cascade the core is currently in
	// (reset when its transaction commits) — the source of the
	// abort-chain histogram.
	tr         *trace.Recorder
	abortDepth []int

	// crashpoint, when set, fires at every named step of the commit,
	// abort and reclamation protocols (the Point* constants in this
	// package, wal and mem). Installed by SetCrashpoint; used by the
	// crash framework (internal/crash) to kill the machine mid-protocol.
	crashpoint func(point string)

	// sigRef, when set, sees every signature insertion and every
	// per-transaction probe outcome. Nil outside tests, which check the
	// precise tracking flags against a map-based shadow with it.
	sigRef sigObserver

	// syncCount drives the SyncEvery yield granularity, per core.
	syncCount []int
}

// sigObserver is the interface of Machine.sigRef: inserted runs at each
// signature insertion; probed runs once per transaction a probe checks
// (req is the requester, nil when non-transactional), with the trace
// verdict (0 none, 1 true, 2 false positive) and whether the line
// matched for the sticky bit.
type sigObserver interface {
	inserted(t *Tx, la mem.Addr, write bool)
	probed(req, other *Tx, la mem.Addr, write bool, verdict uint64, matched bool)
}

// NewMachine builds a node with the given engine, configuration,
// options, and default protocol latencies.
func NewMachine(eng *sim.Engine, cfg mem.Config, opts Options) *Machine {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 8
	}
	if opts.SigBits == 0 {
		opts.SigBits = signature.Bits4K
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 1
	}
	m := &Machine{
		cfg:          cfg,
		opts:         opts,
		lat:          DefaultLatencies(),
		eng:          eng,
		store:        mem.NewStore(cfg),
		dir:          coherence.NewDirectory(),
		byCore:       make([]*Tx, cfg.Cores),
		activeCores:  make([]uint64, (cfg.Cores+63)/64),
		txPool:       make([]*Tx, cfg.Cores),
		locks:        make(map[int]*domainLock),
		stats:        &stats.Stats{},
		domainStats:  make(map[int]*stats.Stats),
		coreDomain:   make([]int, cfg.Cores),
		stickyGen:    1,
		stickyPages:  make([]*stickyPage, mem.PageCount),
		pendingPages: make([]*pendingPage, mem.PageCount),
		syncCount:    make([]int, cfg.Cores),
		abortDepth:   make([]int, cfg.Cores),
	}
	for i := range m.coreDomain {
		m.coreDomain[i] = -1
	}
	m.llc = cache.New("llc", cfg.LLCSize, cfg.LLCWays, m.onLLCEvict)
	// L1s take the brunt of inclusive-invalidation snoops (every LLC
	// eviction probes all of them); one presence filter over all of them
	// lets a snoop skip the broadcast when no L1 can hold the victim. The
	// LLC is not filtered — nothing bulk-probes it.
	m.l1Presence = cache.NewPresence(cfg.Cores * (cfg.L1Size / mem.LineSize))
	for i := 0; i < cfg.Cores; i++ {
		core := i
		l1 := cache.New(fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways, func(e cache.Eviction) {
			m.onL1Evict(core, e)
		})
		l1.SharePresence(m.l1Presence)
		m.l1 = append(m.l1, l1)
	}
	m.dcache = dramcache.New(cfg.DRAMCacheSize, cfg.DRAMCacheWays)
	m.undoRings = wal.NewRings(m.store, mem.DRAMLogBase, mem.LogAreaSize, cfg.Cores, false)
	// NVM log-area layout: the checkpoint cell (one line, see ckptAddr),
	// then the checkpoint ring, then the per-core redo rings over the
	// rest (minus any caller reservation at the top).
	m.ckptAddr = mem.NVMLogBase
	ckptBytes := ckptRingBytes(cfg.Cores)
	m.ckptLog = wal.NewLog(m.store, mem.NVMLogBase+mem.LineSize, ckptBytes, true)
	m.ckptLog.SetPointPrefix(PointPrefixCkptRing)
	m.redoRings = wal.NewRings(m.store, mem.NVMLogBase+mem.LineSize+ckptBytes, mem.LogAreaSize-mem.LineSize-ckptBytes-opts.ReserveLogArea, cfg.Cores, true)
	if tr := eng.Tracer(); tr != nil {
		m.installTracer(tr)
	}
	return m
}

// Injection points fired by the Machine's protocol code, in protocol
// order. Between any two consecutive points one or more durability or
// bookkeeping steps execute; crashing at every point (plus the
// finer-grained wal.* and mem.* points those steps fire internally)
// therefore covers every reachable mid-protocol durable state. The
// naming scheme is <package>.<protocol>.<step>; see RECOVERY.md.
const (
	PointCommitBegin   = "core.commit.begin"   // protocol entered, nothing written
	PointCommitRecord  = "core.commit.record"  // before each redo RecWrite append
	PointCommitMark    = "core.commit.mark"    // before the RecCommit append (the durability point)
	PointCommitFlush   = "core.commit.flush"   // mark durable; before the write-set flush to the DRAM cache
	PointCommitDRAM    = "core.commit.dram"    // before the DRAM-side (undo/redo log) commit
	PointCommitCleanup = "core.commit.cleanup" // before volatile-state retirement (finishCommit)
	PointAbortBegin    = "core.abort.begin"    // rollback entered
	PointAbortUndo     = "core.abort.undo"     // before pre-images are restored
	PointAbortMark     = "core.abort.mark"     // before the RecAbort append
	PointAbortDone     = "core.abort.done"     // rollback complete
	PointReclaimBegin  = "core.reclaim.begin"  // reclamation pass entered
	PointReclaimImage  = "core.reclaim.image"  // before each pending in-place image persists
	PointReclaimDrain  = "core.reclaim.drain"  // before the DRAM cache drains
	PointReclaimCkpt   = "core.reclaim.ckpt"   // images durable; before the checkpoint group appends
	PointReclaimCell   = "core.reclaim.cell"   // group durable; before the checkpoint cell persists
	PointReclaimRings  = "core.reclaim.rings"  // cell durable; before the rings truncate incrementally
)

// PointPrefixCkptRing is the injection-point prefix of the checkpoint
// ring (wal.Log.SetPointPrefix), yielding wal.ckpt.append.record /
// append.ctrl / reclaim.ctrl — every durable step of a fuzzy checkpoint
// group write gets its own crash point.
const PointPrefixCkptRing = "wal.ckpt."

// ckptRingBytes sizes the checkpoint ring for a machine with the given
// core count: a fuzzy checkpoint group is at most cores+2 records (one
// active entry per core plus begin/end), and the ring must hold the
// previous complete group, the current one, and headroom for the next
// append before the previous is truncated — three groups, line-aligned.
func ckptRingBytes(cores int) mem.Addr {
	raw := mem.Addr(mem.LineSize) + mem.Addr(3*(cores+2)*wal.RecordSize)
	return (raw + mem.LineSize - 1) &^ (mem.LineSize - 1)
}

// SetCrashpoint installs (or, with nil, removes) the crash-injection
// hook on the machine, its store, and both log-ring sets. The hook runs
// synchronously on the simulated thread executing the protocol step and
// may halt the engine (sim.Engine.HaltNow) to model a power failure at
// exactly that step; it must not mutate simulator state.
func (m *Machine) SetCrashpoint(f func(point string)) {
	m.crashpoint = f
	m.store.SetCrashpoint(f)
	m.undoRings.SetCrashpoint(f)
	m.redoRings.SetCrashpoint(f)
	m.ckptLog.SetCrashpoint(f)
}

// SetPrepareResolver installs the callback incremental reclamation
// consults for prepared-but-undecided record groups (see the
// prepareResolver field). internal/shard installs one that answers from
// the coordinator's durable decision state.
func (m *Machine) SetPrepareResolver(f func(txID uint64) bool) { m.prepareResolver = f }

// hit fires one machine-level injection point.
func (m *Machine) hit(point string) {
	if m.crashpoint != nil {
		m.crashpoint(point)
	}
}

// DurableRedoRecords returns every validated record inside the durable
// recovery window of every core's redo ring — the evidence recovery
// would act on after a crash at this instant. It leaves the rings
// alone: the committed-prefix oracle, its one caller, reads the
// evidence independently of Recover.
func (m *Machine) DurableRedoRecords() []wal.Record {
	var out []wal.Record
	for i := 0; i < m.redoRings.Count(); i++ {
		out = append(out, m.redoRings.ForCore(i).Records()...)
	}
	return out
}

// Checkpoint returns the low-water LSN of the latest complete durable
// fuzzy checkpoint (0 when none has been written) — the replay filter
// recovery acts on. It reads durable evidence only: the cell and the
// checkpoint ring are decoded from the durable image, so the answer is
// identical before and after Crash.
func (m *Machine) Checkpoint() uint64 {
	ck, ok := m.durableCheckpoint(m.ckptLog.Window())
	if !ok {
		return 0
	}
	return ck.LowWater
}

// durableCheckpoint resolves the latest complete checkpoint group from
// the durable cell and w, the checkpoint ring's durable window: the cell
// points at the newest group; if that group is torn (a crash mid-append)
// the window is scanned for the newest complete one — the previous
// checkpoint, which is always retained.
func (m *Machine) durableCheckpoint(w wal.Window) (wal.Checkpoint, bool) {
	if cell := m.store.DurableU64(m.ckptAddr); cell != 0 {
		if ck, ok := w.CheckpointAt(cell - 1); ok {
			return ck, true
		}
	}
	return w.LatestCheckpoint()
}

// CkptLog exposes the checkpoint ring (tests, tooling).
func (m *Machine) CkptLog() *wal.Log { return m.ckptLog }

// Store exposes the simulated memory (workload setup, checkers).
func (m *Machine) Store() *mem.Store { return m.store }

// Config returns the machine's memory configuration.
func (m *Machine) Config() mem.Config { return m.cfg }

// Options returns the machine's HTM options.
func (m *Machine) Options() Options { return m.opts }

// Stats returns the machine-wide counters.
func (m *Machine) Stats() *stats.Stats { return m.stats }

// DomainStats returns (creating if needed) the counters for one conflict
// domain.
func (m *Machine) DomainStats(domain int) *stats.Stats {
	s := m.domainStats[domain]
	if s == nil {
		s = &stats.Stats{}
		m.domainStats[domain] = s
	}
	return s
}

// CommitLog returns the retained per-commit write images (only populated
// when Options.TrackCommits is set).
func (m *Machine) CommitLog() []committedTx { return m.commitLog }

// NextLSN advances and returns the machine's global commit sequence
// number. The cross-shard commit protocol (internal/shard) stamps its
// per-shard apply marks with it so 2PC applies serialize into the same
// LSN order as local commits on this shard's rings.
func (m *Machine) NextLSN() uint64 {
	m.lsnCounter++
	return m.lsnCounter
}

// RedoLog returns core i's durable redo ring. internal/shard appends its
// 2PC prepare write sets and apply marks there so they share the local
// commit protocol's durability and recovery path.
func (m *Machine) RedoLog(core int) *wal.Log { return m.redoRings.ForCore(core) }

// NoteCommit registers an externally applied transaction (a cross-shard
// 2PC apply) with the machine's commit bookkeeping: each written line's
// image joins the pendingNVM set — so a later ReclaimLogs persists the
// applied value, not a stale image — and, under TrackCommits, the
// transaction is appended to the commit log. Lines are registered in
// ascending address order for determinism. The machine takes ownership
// of writes.
func (m *Machine) NoteCommit(id uint64, domain int, writes map[mem.Addr]mem.Line) {
	addrs := make([]mem.Addr, 0, len(writes))
	for la := range writes {
		addrs = append(addrs, la)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, la := range addrs {
		img := writes[la]
		m.pendingPut(la, img)
	}
	if m.opts.TrackCommits {
		m.commitLog = append(m.commitLog, committedTx{ID: id, Domain: domain, Writes: writes})
	}
}

// txByID returns the live transaction with the given ID, or nil. One
// live transaction per core makes the per-core table the authoritative
// ID index (a retiring transaction stays visible until its finish
// routine clears its core slot, mirroring the former by-ID map).
func (m *Machine) txByID(id uint64) *Tx {
	if id == 0 {
		return nil
	}
	for _, t := range m.byCore {
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// stickyPage is one page of the sticky check-signature bits: a line is
// sticky when its slot holds the machine's current stickyGen.
type stickyPage struct {
	gen [mem.PageLines]uint32
}

// pendingPage is one page of the pendingNVM index: 1-based position of
// the line in pendingAddrs/pendingImgs, 0 when absent.
type pendingPage struct {
	pos [mem.PageLines]int32
}

// pendingPut registers (or refreshes) the committed image of an NVM
// line awaiting its in-place durable update.
func (m *Machine) pendingPut(la mem.Addr, img mem.Line) {
	idx := mem.LineIndex(la)
	p := m.pendingPages[idx>>mem.PageShift]
	if p == nil {
		p = new(pendingPage)
		m.pendingPages[idx>>mem.PageShift] = p
	}
	o := idx & (mem.PageLines - 1)
	if q := p.pos[o]; q != 0 {
		m.pendingImgs[q-1] = img
		return
	}
	m.pendingAddrs = append(m.pendingAddrs, la)
	m.pendingImgs = append(m.pendingImgs, img)
	p.pos[o] = int32(len(m.pendingAddrs))
}

func (m *Machine) lock(domain int) *domainLock {
	l := m.locks[domain]
	if l == nil {
		l = &domainLock{}
		m.locks[domain] = l
	}
	return l
}

// domainLock is the per-conflict-domain fallback lock of Algorithm 1.
type domainLock struct {
	held   bool
	holder int // core ID
}
