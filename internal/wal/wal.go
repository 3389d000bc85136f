// Package wal implements the hardware logs of the paper's hybrid
// version management: an undo log in the reserved DRAM log area (old
// values of LLC-evicted DRAM lines, Section IV-B "DRAM Data") and a redo
// log in the reserved NVM log area (new values of transactional NVM
// lines, following the hardware-assisted logging design of [28]).
//
// Logs are rings of fixed-size records living *inside the simulated
// address space*, one ring per core (per-core logs, as in ATOM/DHTM
// [31], [30], keep reclamation a prefix operation). NVM log appends are
// persisted to the durable image line by line — the write-pending queue
// plus ADR makes an accepted log write durable, which is exactly the
// paper's durability point — so crash recovery reads real bytes back out
// of the durable image.
package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"uhtm/internal/mem"
	"uhtm/internal/trace"
)

// RecordType tags a log record.
type RecordType uint8

const (
	// RecWrite carries a line image: the old value (undo log) or the
	// new value (redo log) of Addr.
	RecWrite RecordType = 1
	// RecCommit is the commit mark for TxID: all preceding RecWrite
	// records of that transaction are committed.
	RecCommit RecordType = 2
	// RecAbort marks TxID aborted; its RecWrite records are dead (redo)
	// or must be applied to roll back (undo).
	RecAbort RecordType = 3
	// RecPrepare is the 2PC prepare mark for a cross-shard transaction
	// (internal/shard): all preceding RecWrite records of TxID on this
	// ring are a durable prepared write set, but the transaction's fate
	// rests with the coordinator's decision record. Local replay ignores
	// it — a prepared-but-undecided group has no RecCommit and is
	// discarded like any uncommitted transaction.
	RecPrepare RecordType = 4
	// RecCkptBegin opens a fuzzy checkpoint record group (ARIES-style
	// begin_chkpt): TxID carries the checkpoint sequence number, LSN the
	// low-water commit LSN, Addr the dirty-line count, and Data[0:8] the
	// number of RecCkptActive records that follow.
	RecCkptBegin RecordType = 5
	// RecCkptActive is one active-transaction-table entry of a fuzzy
	// checkpoint: TxID is the in-flight transaction, LSN its commit-mark
	// LSN (0 when the mark is not yet logged).
	RecCkptActive RecordType = 6
	// RecCkptEnd closes a checkpoint group (end_chkpt), echoing the
	// begin record's sequence number and low-water LSN. A group without
	// a matching end record is torn and must be ignored in favor of the
	// previous complete one.
	RecCkptEnd RecordType = 7
)

// String names the record type for logs and dumps.
func (t RecordType) String() string {
	switch t {
	case RecWrite:
		return "write"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecPrepare:
		return "prepare"
	case RecCkptBegin:
		return "ckpt.begin"
	case RecCkptActive:
		return "ckpt.active"
	case RecCkptEnd:
		return "ckpt.end"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one log entry.
type Record struct {
	Type RecordType
	TxID uint64
	Addr mem.Addr // line address (RecWrite only)
	Data mem.Line // line image (RecWrite only)
	// LSN is the global commit sequence number stamped on RecCommit
	// records. The paper's memory controllers serialize concurrent log
	// appends into one log area, giving commits a total order; with
	// per-core rings the LSN preserves that order so cross-core writes
	// to the same line replay correctly.
	LSN uint64
}

// RecordSize is the on-"disk" footprint of an encoded record:
// 8 (type+magic) + 8 (txID) + 8 (addr) + 64 (data) + 8 (LSN) +
// 8 (checksum) = 104. Records span cache-line boundaries, so a power
// failure can persist some of a record's lines and not others; the
// trailing checksum makes every such torn write detectable at replay.
const RecordSize = 104

// payloadSize is the checksummed prefix of a record.
const payloadSize = RecordSize - 8

// recMagic guards against replaying garbage after a torn ring wrap.
const recMagic uint32 = 0x55AA17C3

// checksum hashes the record payload a word at a time: each
// little-endian word is multiplied into the running state, which is
// rotated and remixed, and a final avalanche spreads every input bit
// over the result. A memory controller would use ECC-grade CRC; any
// whole-buffer hash gives the property recovery needs — a record
// assembled from lines of two different writes (torn) or never fully
// written (truncated) fails verification. Every step is a bijection of
// the state for a fixed word, so two payloads that differ in a single
// word always hash apart.
func checksum(b *[RecordSize]byte) uint64 {
	const (
		prime1 = 0x9E3779B185EBCA87
		prime2 = 0xC2B2AE3D27D4EB4F
	)
	h := uint64(prime1)
	for i := 0; i < payloadSize; i += 8 {
		h ^= binary.LittleEndian.Uint64(b[i:]) * prime2
		h = bits.RotateLeft64(h, 31) * prime1
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// encode serializes r into a RecordSize-byte buffer.
func encode(r Record, buf *[RecordSize]byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], recMagic)
	buf[4] = byte(r.Type)
	le.PutUint64(buf[8:], r.TxID)
	le.PutUint64(buf[16:], uint64(r.Addr))
	copy(buf[24:24+mem.LineSize], r.Data[:])
	le.PutUint64(buf[24+mem.LineSize:], r.LSN)
	le.PutUint64(buf[payloadSize:], checksum(buf))
}

// decodeInto parses a RecordSize-byte buffer into r. It reports false,
// leaving r untouched, when the magic is absent (unwritten space) or the
// checksum does not match the payload (a torn or truncated write — some
// but not all of the record's cache lines reached durability, or the
// slot holds a stale mix of two ring generations). Recovery decodes a
// whole window into place without copying each record out.
func decodeInto(buf *[RecordSize]byte, r *Record) bool {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != recMagic || le.Uint64(buf[payloadSize:]) != checksum(buf) {
		return false
	}
	r.Type = RecordType(buf[4])
	r.TxID = le.Uint64(buf[8:])
	r.Addr = mem.Addr(le.Uint64(buf[16:]))
	copy(r.Data[:], buf[24:24+mem.LineSize])
	r.LSN = le.Uint64(buf[24+mem.LineSize:])
	return true
}

// ctrlSize is the control block at the base of each ring: head and tail
// (monotonic record sequence numbers), persisted alongside the data so
// recovery can find the live window.
const ctrlSize = mem.LineSize

// Log is one per-core log ring.
//
// Every ring keeps a group index of its host window [Tail, Head): one
// Group per run of consecutive same-TxID records, in ring order, each
// carrying the fate its transaction's marks gave it. Append extends it
// from the Record in hand and Reclaim drops its front, so reclamation
// (internal/core.ReclaimLogs) decides what to truncate without reading
// or checksumming a single slot — the transaction table of ARIES kept
// per ring.
//
// Head and tail are memory-controller registers that a power failure
// loses; only the durable control block survives. Recover, a persistent
// ring's one recovery entry, re-reads them from it, decodes the durable
// window once and rebuilds the group index, so an append that never
// reached the control block is forgotten, not published by the next.
type Log struct {
	store   *mem.Store
	base    mem.Addr // control block address
	data    mem.Addr // first record slot
	slots   uint64   // capacity in records
	head    uint64   // next sequence number to write
	tail    uint64   // oldest live sequence number
	persist bool     // NVM ring: mirror every write to the durable image

	// groups[first:] is the group index over [tail, head). popped counts
	// the entries dropped from its front, so popped+i-first is entry i's
	// position, stable across compaction.
	groups []Group
	first  int
	popped uint64
	// unmarked maps the TxID of each prepared group still waiting for
	// its mark to the group's position: the 2PC apply mark lands after
	// other groups and must stamp the prepare group too. Local commits
	// never enter it. A second mark for the same TxID (recovery
	// re-logging an apply mark whose first copy missed the durable
	// window) stamps only its own group; it is appended before any new
	// commit can hold a low-water mark below either LSN.
	unmarked map[uint64]uint64

	// window is Window's decode buffer, reused by every call: a
	// recovery decodes each ring's window without allocating.
	window []Record

	// hook, when set, fires at the ring's named injection points (see
	// the Point* constants); the crash framework uses it to kill the
	// simulation between any two protocol steps.
	hook func(point string)

	// pointPrefix, when non-empty, overrides the default
	// "wal.redo."/"wal.undo." injection-point prefix — used by logs that
	// are neither (the shard coordinator's decision log) so their crash
	// points get their own namespace.
	pointPrefix string

	// tracer, when set, receives append/truncate events; traceNow
	// supplies virtual timestamps and ringCore identifies the ring.
	tracer   *trace.Recorder
	traceNow func() int64
	ringCore int

	// Appends counts records written since creation (statistics).
	Appends uint64
}

// Fate is a record group's transaction outcome as the ring's marks
// record it.
type Fate uint8

const (
	// FateOpen: no mark yet — a transaction mid-commit or mid-prepare,
	// or one a crash cut short.
	FateOpen Fate = iota
	// FatePrepared: a RecPrepare closed the group; the outcome rests
	// with the 2PC coordinator until a mark arrives.
	FatePrepared
	// FateAborted: a RecAbort marked the transaction aborted. It
	// overrides a commit mark.
	FateAborted
	// FateCommitted: a RecCommit marked the transaction committed at
	// Group.LSN.
	FateCommitted
)

// Group is one entry of a ring's group index: a run of consecutive
// records sharing a TxID, and its transaction's fate. A 2PC transaction
// has two groups on a ring — its prepare group and, later, its apply
// mark — and the mark stamps both.
type Group struct {
	End  uint64 // sequence number one past the group's last record
	TxID uint64
	LSN  uint64 // commit LSN when Fate is FateCommitted
	Fate Fate
}

// mark applies a RecCommit or RecAbort to g's fate: the one rule that
// reclamation and replay share.
func (g *Group) mark(r *Record) {
	if r.Type == RecAbort {
		g.Fate = FateAborted
	} else if g.Fate != FateAborted {
		g.Fate, g.LSN = FateCommitted, r.LSN
	}
}

// Injection-point suffixes fired by a Log. The full point name is the
// suffix prefixed with "wal.redo." (persistent/NVM ring) or "wal.undo."
// (volatile/DRAM ring), so a crash sweep distinguishes failures in the
// durability-critical redo path from harmless volatile-ring ones.
const (
	// PointAppendRecord fires before the record's bytes are written
	// (crash here: the append never happened).
	PointAppendRecord = "append.record"
	// PointAppendCtrl fires after the record's bytes are written but
	// before the control block advances head (crash here: the record is
	// durable but outside the recovery window — invisible, which is safe
	// because the commit is not yet acknowledged).
	PointAppendCtrl = "append.ctrl"
	// PointReclaimCtrl fires before the control block advances tail
	// (crash here: reclaimed records are still inside the window and
	// will be re-applied — replay must be idempotent).
	PointReclaimCtrl = "reclaim.ctrl"
)

func (l *Log) kind() string {
	if l.pointPrefix != "" {
		return l.pointPrefix
	}
	if l.persist {
		return "wal.redo."
	}
	return "wal.undo."
}

// SetPointPrefix overrides the ring's injection-point prefix (default
// "wal.redo."/"wal.undo." by durability). The prefix should end in ".".
func (l *Log) SetPointPrefix(p string) { l.pointPrefix = p }

func (l *Log) hit(suffix string) {
	if l.hook != nil {
		l.hook(l.kind() + suffix)
	}
}

// SetCrashpoint installs (or removes) the ring's crash-injection hook.
func (l *Log) SetCrashpoint(f func(point string)) { l.hook = f }

// SetTracer installs (or, with nil, removes) the ring's event recorder.
// now supplies virtual timestamps; core is the ring's index, stamped on
// every event.
func (l *Log) SetTracer(r *trace.Recorder, now func() int64, core int) {
	l.tracer, l.traceNow, l.ringCore = r, now, core
}

// redoBit encodes the ring kind into trace-event Arg payloads (bit 8:
// set for the durable NVM redo ring).
func (l *Log) redoBit() uint64 {
	if l.persist {
		return 1 << 8
	}
	return 0
}

// NewLog returns a ring over [base, base+size) of the given store.
// persist selects NVM durability semantics.
func NewLog(store *mem.Store, base mem.Addr, size mem.Addr, persist bool) *Log {
	if size <= ctrlSize+RecordSize {
		panic("wal: log region too small")
	}
	l := &Log{
		store:   store,
		base:    base,
		data:    base + ctrlSize,
		slots:   (uint64(size) - ctrlSize) / RecordSize,
		persist: persist,
	}
	l.writeCtrl()
	return l
}

// Slots returns the ring capacity in records.
func (l *Log) Slots() uint64 { return l.slots }

// Len returns the number of live records.
func (l *Log) Len() uint64 { return l.head - l.tail }

// Head returns the next sequence number to be written.
func (l *Log) Head() uint64 { return l.head }

// Tail returns the oldest live sequence number.
func (l *Log) Tail() uint64 { return l.tail }

func (l *Log) slotAddr(seq uint64) mem.Addr {
	return l.data + mem.Addr((seq%l.slots)*RecordSize)
}

// writeBytes copies b into simulated memory at a: into the live and
// the durable image at once when the ring is durable (mem.WriteThrough),
// else into the live image alone.
func (l *Log) writeBytes(a mem.Addr, b []byte) {
	if l.persist {
		l.store.WriteThrough(a, b)
		return
	}
	for len(b) > 0 {
		la := mem.LineOf(a)
		line := l.store.PeekLine(la)
		n := copy(line[mem.LineOffset(a):], b)
		l.store.WriteLine(la, &line)
		a += mem.Addr(n)
		b = b[n:]
	}
}

func (l *Log) writeCtrl() {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], l.head)
	binary.LittleEndian.PutUint64(buf[8:], l.tail)
	l.writeBytes(l.base, buf[:])
}

// Append adds a record to the ring and returns its sequence number. It
// panics when the ring is full — the paper traps to the OS to grow the
// log area; workloads here reclaim aggressively instead, so a full ring
// is a harness bug.
func (l *Log) Append(r Record) uint64 {
	if l.head-l.tail >= l.slots {
		panic(fmt.Sprintf("wal: log ring at %#x full (%d records); reclamation fell behind", uint64(l.base), l.slots))
	}
	var buf [RecordSize]byte
	encode(r, &buf)
	seq := l.head
	l.hit(PointAppendRecord)
	l.writeBytes(l.slotAddr(seq), buf[:])
	l.head++
	l.indexAppend(&r, seq)
	l.Appends++
	l.hit(PointAppendCtrl)
	l.writeCtrl()
	if l.tracer != nil {
		l.tracer.Emit(l.traceNow(), l.ringCore, trace.EvWALAppend,
			r.TxID, uint64(r.Addr), uint64(r.Type)|l.redoBit(), seq)
	}
	return seq
}

// Reclaim advances the tail to seq (exclusive of live data at seq and
// later), freeing ring space. Reclaiming past the head panics.
func (l *Log) Reclaim(seq uint64) {
	if seq > l.head {
		panic("wal: reclaim past head")
	}
	if seq > l.tail {
		l.hit(PointReclaimCtrl)
		l.tail = seq
		l.indexReclaim(seq)
		l.writeCtrl()
		if l.tracer != nil {
			l.tracer.Emit(l.traceNow(), l.ringCore, trace.EvWALTruncate,
				0, 0, l.redoBit(), seq)
		}
	}
}

// indexAppend extends the group index with r, just written at seq.
func (l *Log) indexAppend(r *Record, seq uint64) {
	n := len(l.groups)
	if n == l.first || l.groups[n-1].TxID != r.TxID {
		if n == cap(l.groups) {
			// Full: compact in place when at least half the entries are
			// reclaimed, else double. Either way the next n/2 pushes are
			// copy-free, and a steady window settles in one array.
			live := l.groups[l.first:]
			if 2*l.first < n {
				l.groups = make([]Group, len(live), max(64, 2*n))
			}
			n = copy(l.groups[:len(live)], live)
			l.groups = l.groups[:n]
			l.first = 0
		}
		l.groups = append(l.groups, Group{TxID: r.TxID})
		n++
	}
	g := &l.groups[n-1]
	g.End = seq + 1
	switch r.Type {
	case RecCommit, RecAbort:
		g.mark(r)
		if len(l.unmarked) != 0 {
			if pos, ok := l.unmarked[r.TxID]; ok {
				l.groups[l.first+int(pos-l.popped)].mark(r)
				delete(l.unmarked, r.TxID)
			}
		}
	case RecPrepare:
		if g.Fate == FateOpen {
			g.Fate = FatePrepared
			if l.unmarked == nil {
				l.unmarked = make(map[uint64]uint64)
			}
			l.unmarked[r.TxID] = l.popped + uint64(n-1-l.first)
		}
	}
}

// indexReclaim drops the groups that end at or before the new tail seq.
// A group seq cuts through stays; its first live record is the tail.
func (l *Log) indexReclaim(seq uint64) {
	for l.first < len(l.groups) && l.groups[l.first].End <= seq {
		if g := &l.groups[l.first]; g.Fate == FatePrepared {
			delete(l.unmarked, g.TxID)
		}
		l.first++
		l.popped++
	}
	if l.first == len(l.groups) {
		l.groups, l.first = l.groups[:0], 0
	}
}

// Groups returns the number of record groups in the window [Tail, Head).
func (l *Log) Groups() int { return len(l.groups) - l.first }

// Group returns the i-th group of the window, oldest first.
func (l *Log) Group(i int) Group { return l.groups[l.first+i] }

// CkptActive is one active-transaction-table entry of a fuzzy
// checkpoint (see Checkpoint).
type CkptActive struct {
	TxID      uint64
	CommitLSN uint64 // 0 when the commit mark is not yet logged
}

// Checkpoint is a decoded fuzzy checkpoint record group: the ARIES-style
// begin_chkpt / active-transaction table / end_chkpt triple written by
// incremental log reclamation (internal/core.ReclaimLogs) without
// waiting for quiescence. LowWater is the commit LSN at or below which
// every committed transaction's data is persisted in place — the replay
// filter. DirtyLines summarizes the pendingNVM set drained just before
// the checkpoint was cut.
type Checkpoint struct {
	Seq        uint64 // monotonically increasing checkpoint number
	LowWater   uint64 // replay filter: commits at or below are in place
	DirtyLines int    // dirty-line summary at checkpoint time
	Active     []CkptActive
	BeginSeq   uint64 // ring sequence of the RecCkptBegin record
}

// AppendCheckpoint writes ck as a record group (begin, one active entry
// per in-flight transaction, end) and returns the begin record's ring
// sequence number. The group spans multiple records, so a power failure
// can persist a prefix of it; Window.CheckpointAt and LatestCheckpoint
// treat any group without a validated end record as torn.
func (l *Log) AppendCheckpoint(ck Checkpoint) uint64 {
	var data mem.Line
	binary.LittleEndian.PutUint64(data[0:8], uint64(len(ck.Active)))
	begin := l.Append(Record{Type: RecCkptBegin, TxID: ck.Seq, Addr: mem.Addr(ck.DirtyLines), Data: data, LSN: ck.LowWater})
	for _, a := range ck.Active {
		l.Append(Record{Type: RecCkptActive, TxID: a.TxID, LSN: a.CommitLSN})
	}
	l.Append(Record{Type: RecCkptEnd, TxID: ck.Seq, LSN: ck.LowWater})
	return begin
}

// Window is a persistent ring's durable window decoded slot by slot:
// Recs[i] holds slot Tail+i, or the zero Record (Type 0, which no
// record carries) where the slot failed validation.
type Window struct {
	Tail uint64
	Recs []Record
	Torn int // slots that failed validation
}

// Window decodes the ring's durable window from the durable image and
// leaves the ring's registers and group index alone (see Recover). Recs
// is the ring's own buffer, reused by its next Window or Recover: a
// caller that keeps records past that copies them.
func (l *Log) Window() Window {
	head, tail := l.RecoverWindow()
	n := head - tail
	if uint64(cap(l.window)) < n {
		l.window = make([]Record, n)
	}
	w := Window{Tail: tail, Recs: l.window[:n]}
	var buf [RecordSize]byte
	for i := range w.Recs {
		// The slot's bytes come straight out of the durable lines.
		l.store.DurableInto(l.slotAddr(tail+uint64(i)), buf[:])
		if !decodeInto(&buf, &w.Recs[i]) {
			w.Recs[i] = Record{}
			w.Torn++
		}
	}
	return w
}

// Recover is a persistent ring's recovery entry: it decodes the durable
// window once, resets the head and tail registers to the control block,
// and rebuilds the group index by feeding each validated record through
// indexAppend, as Append does. A record whose append crashed before its
// control-block update is thus forgotten; the next append overwrites it.
// The returned window is valid until the ring's next Window or Recover
// (see Window).
func (l *Log) Recover() Window {
	w := l.Window()
	l.tail, l.head = w.Tail, w.Tail+uint64(len(w.Recs))
	l.groups, l.first, l.popped = l.groups[:0], 0, 0
	clear(l.unmarked)
	for i := range w.Recs {
		if w.Recs[i].Type != 0 {
			l.indexAppend(&w.Recs[i], w.Tail+uint64(i))
		}
	}
	return w
}

// Records returns a copy of every validated record of the durable
// window, in ring order (torn slots are skipped). Like Window it leaves
// the ring alone.
func (l *Log) Records() []Record {
	var out []Record
	for _, r := range l.Window().Recs {
		if r.Type != 0 {
			out = append(out, r)
		}
	}
	return out
}

// CheckpointAt decodes the checkpoint group whose begin record sits at
// ring sequence seq. It fails (ok=false) when seq is outside the
// window, any record of the group is torn or of the wrong type, or the
// end record does not echo the begin — exactly the cases where recovery
// must fall back to the previous complete checkpoint.
func (w Window) CheckpointAt(seq uint64) (Checkpoint, bool) {
	if seq < w.Tail || seq-w.Tail >= uint64(len(w.Recs)) {
		return Checkpoint{}, false
	}
	recs := w.Recs[seq-w.Tail:]
	begin := recs[0]
	if begin.Type != RecCkptBegin {
		return Checkpoint{}, false
	}
	n := binary.LittleEndian.Uint64(begin.Data[0:8])
	if n+2 < n || n+2 > uint64(len(recs)) {
		return Checkpoint{}, false
	}
	ck := Checkpoint{
		Seq:        begin.TxID,
		LowWater:   begin.LSN,
		DirtyLines: int(begin.Addr),
		BeginSeq:   seq,
	}
	for _, r := range recs[1 : 1+n] {
		if r.Type != RecCkptActive {
			return Checkpoint{}, false
		}
		ck.Active = append(ck.Active, CkptActive{TxID: r.TxID, CommitLSN: r.LSN})
	}
	if end := recs[1+n]; end.Type != RecCkptEnd || end.TxID != begin.TxID || end.LSN != begin.LSN {
		return Checkpoint{}, false
	}
	return ck, true
}

// LatestCheckpoint returns the window's newest complete checkpoint
// group (highest Seq), if any. Recovery uses it as the fallback when
// the checkpoint cell points at a torn group.
func (w Window) LatestCheckpoint() (Checkpoint, bool) {
	var best Checkpoint
	found := false
	for i := range w.Recs {
		if ck, ok := w.CheckpointAt(w.Tail + uint64(i)); ok && (!found || ck.Seq >= best.Seq) {
			best, found = ck, true
		}
	}
	return best, found
}

// RecoverWindow reads the durable control block and returns the live
// window (tail, head) as of the crash. Only meaningful for persistent
// rings.
func (l *Log) RecoverWindow() (head, tail uint64) {
	return l.store.DurableU64(l.base), l.store.DurableU64(l.base + 8)
}

// ReplayStats reports what a redo-log replay did.
type ReplayStats struct {
	CommittedTx   int // distinct committed transactions applied
	AppliedLines  int // RecWrite records applied
	DiscardedTx   int // distinct uncommitted/aborted transactions discarded
	DiscardedRecs int // their RecWrite records
	TornRecs      int // in-window slots skipped (torn/corrupt writes)
	StaleTx       int // committed transactions below the checkpoint, skipped
	StaleRecs     int // their RecWrite records
	ScannedRecs   int // in-window slots examined, including torn ones
}

// Add sums o into s, field by field.
func (s *ReplayStats) Add(o ReplayStats) {
	s.CommittedTx += o.CommittedTx
	s.AppliedLines += o.AppliedLines
	s.DiscardedTx += o.DiscardedTx
	s.DiscardedRecs += o.DiscardedRecs
	s.TornRecs += o.TornRecs
	s.StaleTx += o.StaleTx
	s.StaleRecs += o.StaleRecs
	s.ScannedRecs += o.ScannedRecs
}

// Replay performs redo-log crash recovery (Section IV-C) of this one
// ring: Recover, then apply every committed group's writes and discard
// the rest. It is Rings.Recover's replay with no checkpoint filter.
func (l *Log) Replay() ReplayStats {
	return replay([]*Log{l}, []Window{l.Recover()}, 0)
}

// Rings partitions a log area into per-core rings.
type Rings struct {
	logs []*Log
}

// NewRings carves count equal rings out of [areaBase, areaBase+areaSize).
func NewRings(store *mem.Store, areaBase, areaSize mem.Addr, count int, persist bool) *Rings {
	per := areaSize / mem.Addr(count)
	per &^= mem.LineSize - 1 // line-align each ring
	rs := &Rings{}
	for i := 0; i < count; i++ {
		rs.logs = append(rs.logs, NewLog(store, areaBase+mem.Addr(i)*per, per, persist))
	}
	return rs
}

// ForCore returns core i's ring.
func (r *Rings) ForCore(i int) *Log { return r.logs[i] }

// SetCrashpoint installs (or removes) the crash-injection hook on every
// ring.
func (r *Rings) SetCrashpoint(f func(point string)) {
	for _, l := range r.logs {
		l.SetCrashpoint(f)
	}
}

// SetTracer installs (or removes) the event recorder on every ring,
// stamped with its core index.
func (r *Rings) SetTracer(rec *trace.Recorder, now func() int64) {
	for i, l := range r.logs {
		l.SetTracer(rec, now, i)
	}
}

// Count returns the number of rings.
func (r *Rings) Count() int { return len(r.logs) }

// Recover performs crash recovery across all cores' rings: each ring is
// recovered once (Log.Recover) and replayed. It returns the replay
// counts and each ring's decoded window (ring i's at index i).
//
// Groups committed at or below ckpt are stale truncation leftovers:
// their data is already persisted in place, and ring truncation is not
// atomic across cores, so a crash mid-truncation can leave them on some
// rings while newer commits' records are gone. Applying one would
// regress its lines, so they are skipped (counted as StaleTx/StaleRecs).
func (r *Rings) Recover(ckpt uint64) (ReplayStats, []Window) {
	wins := make([]Window, len(r.logs))
	for i, l := range r.logs {
		wins[i] = l.Recover()
	}
	return replay(r.logs, wins, ckpt+1), wins
}

// replay is the one redo replay, over rings just recovered into wins.
// It applies the RecWrite records of every committed group with LSN at
// least from in global commit (LSN) order, so cross-core writes to a
// line resolve to the newest value, as with the paper's single log
// area. Committed groups below from are stale; the rest are discarded,
// and a still-open one — a transaction the crash killed, whose ID no
// later mark can carry — is closed as aborted so reclamation drops it.
// StaleTx counts the group holding the commit mark, so a 2PC prepare
// group and its later apply mark count once.
func replay(logs []*Log, wins []Window, from uint64) ReplayStats {
	type commit struct {
		recs []Record
		lsn  uint64
	}
	var st ReplayStats
	var apply []commit
	for i, l := range logs {
		w := wins[i]
		st.ScannedRecs += len(w.Recs)
		st.TornRecs += w.Torn
		start := w.Tail
		for j := range l.groups[l.first:] {
			g := &l.groups[l.first+j]
			recs := w.Recs[start-w.Tail : g.End-w.Tail]
			start = g.End
			writes, marked := 0, false
			for k := range recs {
				switch recs[k].Type {
				case RecWrite:
					writes++
				case RecCommit:
					marked = true
				}
			}
			if g.Fate == FateOpen {
				g.Fate = FateAborted // the crash killed it: no mark can follow
			}
			switch {
			case g.Fate != FateCommitted:
				if writes > 0 {
					st.DiscardedTx++
					st.DiscardedRecs += writes
				}
			case g.LSN < from:
				if marked {
					st.StaleTx++
				}
				st.StaleRecs += writes
			case writes > 0:
				apply = append(apply, commit{recs, g.LSN})
			}
		}
	}
	slices.SortStableFunc(apply, func(a, b commit) int { return cmp.Compare(a.lsn, b.lsn) })
	for _, c := range apply {
		st.CommittedTx++
		for k := range c.recs {
			if r := &c.recs[k]; r.Type == RecWrite {
				logs[0].store.WriteThrough(r.Addr, r.Data[:])
				st.AppliedLines++
			}
		}
	}
	return st
}
