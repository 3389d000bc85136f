package core

import "uhtm/internal/stats"

// Overflowed reports whether the transaction's footprint has left the
// LLC (the TSS overflow bit).
func (tx *Tx) Overflowed() bool { return tx.status.overflowed }

// Attempt returns the zero-based retry count of this execution.
func (tx *Tx) Attempt() int { return tx.attempt }

// SlowPath reports whether this execution runs serialized under the
// domain's fallback lock.
func (tx *Tx) SlowPath() bool { return tx.slowPath }

// Abort explicitly aborts the current attempt (xabort-style). Run will
// retry the body.
func (tx *Tx) Abort() {
	tx.unwind(stats.CauseExplicit, 0, -1)
}
