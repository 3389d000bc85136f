// Package trace is the deterministic observability layer of the
// simulator: a flat, append-only event log recorded while a simulation
// runs, stamped with virtual time, core and transaction ID. The
// Recorder is owned by the engine world (sim.Engine carries one the
// same way it carries the RNG), so traces inherit the engine's
// determinism — the same seed and scale produce the same byte sequence
// regardless of how many engines the harness runs concurrently.
//
// The package sits below every other simulator package (sim imports it,
// and stats imports sim), so it depends on nothing: timestamps are raw
// int64 picoseconds, addresses are uint64, and abort causes travel as
// numeric codes that callers translate back to names.
//
// A nil *Recorder is the disabled state. Emit on a nil receiver returns
// immediately without allocating, so instrumentation can stay wired in
// on hot paths at the cost of one pointer test.
package trace

// Kind identifies one event type. The Arg/Arg2/Addr payload conventions
// per kind are documented on the constants.
type Kind uint8

const (
	// EvTxBegin: a transaction attempt starts. TxID; Arg = attempt
	// number (1-based); Arg2 = domain<<1 | slowPathBit.
	EvTxBegin Kind = iota
	// EvTxRead / EvTxWrite: a transactional line access. TxID; Addr.
	EvTxRead
	EvTxWrite
	// EvTxOverflow: the transaction's first working-set overflow out of
	// the LLC (it switches to off-chip signature tracking). TxID.
	EvTxOverflow
	// EvTxAbort: a transaction rolls back. TxID = victim; Arg = abort
	// cause code (stats.AbortCause); Arg2 = enemy TxID (0 = none);
	// Addr = enemy core + 1 (0 = none).
	EvTxAbort
	// EvTxCommitBegin / EvTxCommitMark / EvTxCommitDone: the commit
	// phases — entry, durable commit-record mark (Arg = LSN on Mark),
	// and completion. TxID.
	EvTxCommitBegin
	EvTxCommitMark
	EvTxCommitDone
	// EvSlowPathWait: a thread spent virtual time waiting on the
	// fallback lock. Core; Arg = wait in picoseconds; Arg2 = 1 when the
	// wait was a lock acquisition (slow path) rather than a fast-path
	// pause while a lock holder drains.
	EvSlowPathWait
	// EvL1Hit / EvL1Miss / EvLLCHit / EvLLCMiss: cache presence lookups
	// on the access path. Core (L1) or -1 (shared LLC); Addr.
	EvL1Hit
	EvL1Miss
	EvLLCHit
	EvLLCMiss
	// EvLLCEvict: a line leaves the LLC. Core = -1; Addr; TxID = owning
	// transaction (0 = non-transactional); Arg = 1 when dirty.
	EvLLCEvict
	// EvMemFill: a miss filled from below the LLC. Core; Addr; Arg =
	// fill source (Mem* constants); Arg2 = charged latency in ps.
	EvMemFill
	// EvDCFill / EvDCDrain / EvDCDrop: DRAM-cache activity for early-
	// evicted NVM lines — insertion, drain-to-NVM, and drop of a dead
	// (aborted) line. TxID; Addr.
	EvDCFill
	EvDCDrain
	EvDCDrop
	// EvNVMPersist: a line reached the NVM durability domain. Core = -1;
	// Addr.
	EvNVMPersist
	// EvSigProbe: an off-chip signature membership probe against one
	// concurrent transaction. Core = requester; TxID = requesting
	// transaction (0 = non-transactional access); Addr; Arg = verdict
	// (0 no conflict, 1 true conflict, 2 false positive); Arg2 = probed
	// transaction's ID.
	EvSigProbe
	// EvSigOccupancy: signature fill ratio of an overflowed transaction
	// sampled when it finishes. TxID; Arg = write-filter fill in
	// 1/10000ths; Arg2 = read-filter fill in 1/10000ths.
	EvSigOccupancy
	// EvWALAppend: a log record appended to a per-core ring. Core =
	// ring index; TxID; Addr = target line (0 for control records);
	// Arg = record type | redoBit<<8 (redoBit set for the durable NVM
	// redo ring); Arg2 = ring sequence number.
	EvWALAppend
	// EvWALTruncate: ring reclamation advanced a tail. Core = ring
	// index; Arg = redoBit<<8; Arg2 = new tail sequence.
	EvWALTruncate
	// EvWALCheckpoint: the global checkpoint LSN advanced. Core = -1;
	// Arg = new checkpoint LSN.
	EvWALCheckpoint

	numKinds
)

// Fill sources for EvMemFill's Arg.
const (
	MemDRAM      = 0 // DRAM row (volatile heap)
	MemDRAMCache = 1 // DRAM cache hit for an early-evicted NVM line
	MemNVM       = 2 // NVM media
	MemStreamed  = 3 // streamed/bypassed fill (long read-only tx)
)

var kindNames = [numKinds]string{
	"tx-begin", "tx-read", "tx-write", "tx-overflow", "tx-abort",
	"tx-commit-begin", "tx-commit-mark", "tx-commit-done",
	"slow-path-wait",
	"l1-hit", "l1-miss", "llc-hit", "llc-miss", "llc-evict", "mem-fill",
	"dc-fill", "dc-drain", "dc-drop", "nvm-persist",
	"sig-probe", "sig-occupancy",
	"wal-append", "wal-truncate", "wal-checkpoint",
}

// String names the event kind for rendered traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one timeline entry. Payload field meanings depend on Kind —
// see the Kind constants.
type Event struct {
	TS   int64 // virtual time, picoseconds
	Core int32 // core ID; -1 for machine-level events
	Kind Kind
	TxID uint64
	Addr uint64
	Arg  uint64
	Arg2 uint64
}

// Recorder accumulates the event log for one engine world. It is not
// safe for concurrent use — but engine worlds are single-threaded by
// construction, so no locking is needed. A nil Recorder is the disabled
// sink.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit appends one event. On a nil receiver it is a no-op and performs
// no allocation, so call sites may stay unconditional on hot paths.
func (r *Recorder) Emit(ts int64, core int, k Kind, txid, addr, arg, arg2 uint64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		TS: ts, Core: int32(core), Kind: k,
		TxID: txid, Addr: addr, Arg: arg, Arg2: arg2,
	})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded log in emission order. Emission order is
// deterministic (the engine's scheduler is) but NOT globally sorted by
// timestamp: threads run optimistically ahead of the global clock
// between synchronization points, so events from different cores may
// interleave out of time order. Sort by TS if a globally ordered view
// is needed. The slice is the recorder's backing store; callers must
// not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Reset discards all recorded events but keeps the capacity.
func (r *Recorder) Reset() {
	if r != nil {
		r.events = r.events[:0]
	}
}
