// Package server puts a network front-end on the durable key-value
// machinery: a long-lived simulated machine (engine + core.Machine +
// NVM-backed store) behind a line-oriented RESP-subset TCP protocol,
// plus an open-loop load generator for driving it. Where the workload
// drivers in internal/workload build a fresh engine per closed-loop
// run, the server keeps one engine alive for its whole lifetime and
// maps externally arriving requests onto durable transactions through
// a harness.Session — the paper's Table IV stores promoted from
// simulation subjects to a service. See SERVING.md for the wire
// protocol and operational reference.
package server

import (
	"fmt"

	"uhtm/internal/core"
	"uhtm/internal/kv"
	"uhtm/internal/mem"
	"uhtm/internal/txds"
)

// OpKind names one store operation a request can carry.
type OpKind int

// The store operations. Every op in a request executes inside the same
// durable transaction.
const (
	// OpGet reads one key.
	OpGet OpKind = iota
	// OpPut inserts or updates one key.
	OpPut
	// OpDel removes one key.
	OpDel
	// OpScan walks up to N keys in ascending key order starting at Key.
	OpScan
)

// String names the op kind; it matches the wire command name.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one store operation.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  []byte // OpPut only
	N    int    // OpScan only: max keys to return
}

// OpResult is one op's outcome.
type OpResult struct {
	Val     []byte   // OpGet: the value (nil when absent)
	Found   bool     // OpGet: key present; OpDel: key existed
	Keys    []uint64 // OpScan: keys in ascending order
	Vals    [][]byte // OpScan: matching values
	Written bool     // OpPut: always true on commit
}

// Store is the durable KV the server fronts: one partition of the
// paper's Hybrid-Index workload (kv.HybridPart) — an NVM HashMap
// holding the authoritative key→value mapping (the durable truth
// recovery restores) and a DRAM B-Tree index giving SCAN its ordered
// walk, both updated in one durable transaction per request. Deletes
// remove the table entry only; the index keeps a stale key until the
// next rebuild and scans filter through the table, so a deleted key is
// never served.
type Store struct {
	m    *core.Machine
	part kv.HybridPart
}

// NewStore formats a fresh store on the machine: allocators over the
// full NVM and DRAM data regions, an empty table and index. The setup
// writes go straight to the memory image (no transaction — this is the
// pre-crash formatted heap, like the workload prepopulation paths) and
// are made durable before the store serves traffic.
func NewStore(m *core.Machine, buckets int) *Store {
	st := m.Store()
	part := kv.NewHybridPart(st, mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM), buckets)
	st.PersistLiveNVM()
	return &Store{m: m, part: part}
}

// Machine returns the machine the store lives on.
func (s *Store) Machine() *core.Machine { return s.m }

// Table returns the NVM hash map (tests and recovery checks).
func (s *Store) Table() *txds.HashMap { return s.part.Table }

// Prepopulate inserts keys 1..n with deterministic valSize-byte values,
// outside any transaction, and persists them — initial state for load
// generation, mirroring the workload drivers' prepopulation.
func (s *Store) Prepopulate(n, valSize int) {
	for k := 1; k <= n; k++ {
		s.PrepopulateOne(uint64(k), valSize)
	}
	s.m.Store().PersistLiveNVM()
}

// PrepopulateOne inserts one key with its deterministic valSize-byte
// value, outside any transaction and without persisting — the sharded
// server routes each key to its home shard's store this way and
// persists every shard once at the end.
func (s *Store) PrepopulateOne(k uint64, valSize int) {
	st := s.m.Store()
	v := make([]byte, valSize)
	for i := range v {
		v[i] = byte(k + uint64(i))
	}
	s.part.Put(st, k, v)
}

// Apply executes ops as one durable transaction on the given context
// and returns one result per op. GET/SCAN results are copied out of
// simulated memory before the transaction ends, so callers may hold
// them across engine runs.
func (s *Store) Apply(c *core.Ctx, ops []Op) []OpResult {
	results := make([]OpResult, len(ops))
	c.Run(func(tx *core.Tx) {
		for i, op := range ops {
			results[i] = s.do(tx, op)
		}
	})
	return results
}

// do executes one op over m: the one op switch of the server, run
// inside a transaction by Apply and over a shard's live store by the
// cross-shard path (runCross).
func (s *Store) do(m txds.Mem, op Op) OpResult {
	switch op.Kind {
	case OpGet:
		v, ok := s.part.Table.Get(m, op.Key)
		return OpResult{Val: v, Found: ok}
	case OpPut:
		s.part.Put(m, op.Key, op.Val)
		return OpResult{Written: true}
	case OpDel:
		return OpResult{Found: s.part.Table.Delete(m, op.Key)}
	case OpScan:
		keys, vals := s.part.Scan(m, op.Key, op.N)
		return OpResult{Keys: keys, Vals: vals}
	default:
		panic(fmt.Sprintf("server: unknown op kind %v", op.Kind))
	}
}

// Recover brings the store back after a power failure: the machine has
// already replayed its redo logs (core.Machine.Recover), which restored
// the NVM table; the DRAM index is gone — DRAM does not survive — so it
// is rebuilt on a fresh DRAM arena by one sorted bulk load of the
// table's keys (kv.HybridPart.RebuildIndex), which leaves no index node
// full, so served PUTs of recovered keys split nothing.
func (s *Store) Recover() {
	s.part.RebuildIndex(s.m.Store(), mem.NewAllocator(mem.DRAM))
}
