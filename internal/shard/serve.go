package shard

import (
	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// This file is the serving-facing surface of the cluster: where the
// canned workload driver (Run/buildWave) fabricates its own waves, a
// long-lived server routes externally arriving requests — single-shard
// batches through each shard's session, multi-shard MULTI…EXEC batches
// through SubmitCross, a one-transaction wave of the same 2PC commit.
// Every cluster, serving or canned and of any shard count, has the
// coordinator; a crashed one recovers through the same RecoverServing.

// NewServing builds a cluster for a serving front-end: shards with
// engines, machines and sessions but no canned NVM pools and no
// tracers, and the coordinator exactly as New places it — the decision
// area reserved on every shard, the decision log and resolution cell on
// shard 0 — so a one-shard server commits MULTI through the same path.
func NewServing(cfg Config) *Cluster {
	return newCluster(cfg.normalized(), false)
}

// ShardOf maps a key to its home shard: a splitmix64-style finalizer
// (the same construction internal/txds uses for bucket hashing) over
// the key, reduced mod shards. Deterministic across processes, so a
// load generator can predict routing.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := key + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Do runs bodies as one session batch on the shard (harness.Session.Do
// semantics: fresh threads at the engine's current virtual time) and
// reports whether the engine halted mid-batch.
func (sh *Shard) Do(name string, bodies ...func(*sim.Thread)) bool {
	_, halted := sh.sess.Do(name, bodies...)
	return halted
}

// Restart reboots the shard's session after a halt (the caller recovers
// the machine first).
func (sh *Shard) Restart() {
	sh.sess.Restart()
}

// LineWrite is one full-line NVM write of a cross-shard transaction:
// the image captured at prepare time and reused verbatim by apply and
// recovery, so the durable log and the in-place update can never
// disagree.
type LineWrite struct {
	// Addr is the line base address (64-byte aligned).
	Addr mem.Addr
	// Img is the complete post-transaction line image.
	Img mem.Line
}

// SubmitCross commits one externally supplied cross-shard transaction
// through the 2PC coordinator, as a one-transaction wave of the same
// commit the canned driver runs. exec runs once per participant shard
// on a simulated thread and returns that shard's line-granular write
// set (empty for read-only participants); when at least one participant
// wrote, the full protocol runs — durable prepare records on every
// writer's ring 0, a durable commit decision in the coordinator log, a
// mark-first apply on every writer, and the resolution-cell advance —
// firing the same injection points as the canned driver. applied, when
// non-nil, runs on each writer's apply thread after its images are in
// place. There is no admission control:
// the engine loop serializes cross transactions, so every written
// transaction is decided commit. The transaction is not kept after it
// returns.
//
// decided reports whether a durable commit decision was logged (false
// for read-only transactions, which skip the protocol); halted reports
// an injected crash. A halted-but-decided transaction is guaranteed to
// complete on every participant during RecoverServing, so the caller
// may still acknowledge it.
func (c *Cluster) SubmitCross(parts []int, exec func(k int, th *sim.Thread) []LineWrite, applied func(k int, th *sim.Thread)) (decided, halted bool) {
	tx := c.newTx(parts, exec)
	tx.applied = applied
	if decided, halted = c.commit([]*crossTx{tx}); !decided || halted {
		return decided, halted
	}
	// Ring reclamation is left to the shards' ordinary background
	// checkpoints — replay of an already-applied cross transaction is
	// idempotent (same images).
	return true, c.Fanout(c.shards[:1], func(sh *Shard) bool { return c.resolve(sh, tx.seq) })
}
