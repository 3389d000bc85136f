package crash

import (
	"fmt"
	"sort"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/wal"
)

// The committed-prefix oracle. It reads nothing but the machine, so
// any crash consumer — the sweep targets, the server's kill-and-restart
// tests, ad-hoc recovery drills — can verify a machine it crashed
// itself. Mid-commit write images are reconstructed from the durable
// redo records.

// Baseline deep-copies the durable NVM data image (log areas excluded).
// Capture it before running the workload whose recovery will be
// verified, and after any non-transactional formatting/prepopulation.
func Baseline(m *core.Machine) map[mem.Addr]mem.Line {
	out := make(map[mem.Addr]mem.Line)
	for a, l := range m.Store().SnapshotDurable() {
		if dataNVM(a) {
			out[a] = l
		}
	}
	return out
}

// VerifyRecovered checks a machine that has already crashed and
// recovered (core.Machine.Crash + Recover, logs not yet reclaimed)
// against the committed-prefix oracle: the durable NVM data image must
// equal baseline, plus every tracked commit in commit order, plus any
// mid-commit transaction whose commit mark went durable before the
// failure (its write image reconstructed from its durable redo
// records). cores bounds how many mid-commit transactions are possible
// (one per core). Requires Options.TrackCommits on the machine.
//
// It returns "" when every invariant holds, else a description of the
// violation. It does not check that DRAM is empty — callers may already
// have rebuilt volatile indexes.
func VerifyRecovered(m *core.Machine, cores int, baseline map[mem.Addr]mem.Line) string {
	_, detail := verifyRecovered(m, cores, baseline)
	return detail
}

// midCommit is a transaction whose commit mark went durable before it
// registered in the commit log, with its write image as recovered from
// its durable redo records.
type midCommit struct {
	id     uint64
	writes map[mem.Addr]mem.Line
}

// verifyRecovered is VerifyRecovered that also returns the mid-commit
// transactions (in commit-mark LSN order) whose durable images the
// oracle trusted, so a caller holding the writes it intended can check
// those images too.
func verifyRecovered(m *core.Machine, cores int, baseline map[mem.Addr]mem.Line) ([]midCommit, string) {
	committed := make(map[uint64]bool)
	for _, c := range m.CommitLog() {
		committed[c.ID] = true
	}

	// Durable log inspection: commit marks above the checkpoint, abort
	// marks, and per-transaction write images (redo records carry the
	// new line value, so a mid-commit transaction's intent is exactly
	// its durable RecWrite set).
	ckpt := m.Checkpoint()
	durable := make(map[uint64]uint64) // txID → commit LSN
	abortedD := make(map[uint64]bool)
	intents := make(map[uint64]map[mem.Addr]mem.Line)
	for _, r := range m.DurableRedoRecords() {
		switch r.Type {
		case wal.RecCommit:
			if _, ok := durable[r.TxID]; !ok && r.LSN > ckpt {
				durable[r.TxID] = r.LSN
			}
		case wal.RecAbort:
			abortedD[r.TxID] = true
		case wal.RecWrite:
			if !dataNVM(r.Addr) {
				return nil, fmt.Sprintf("redo record for tx %d addresses non-NVM-data line %#x", r.TxID, uint64(r.Addr))
			}
			w := intents[r.TxID]
			if w == nil {
				w = make(map[mem.Addr]mem.Line)
				intents[r.TxID] = w
			}
			w[r.Addr] = r.Data
		}
	}
	for id := range abortedD {
		if _, ok := durable[id]; ok || committed[id] {
			return nil, fmt.Sprintf("tx %d has both abort and commit marks", id)
		}
	}

	// Mid-commit transactions: durable commit mark, never registered in
	// the commit log. At most one per core; disjoint write sets.
	var mid []uint64
	for id := range durable {
		if !committed[id] {
			mid = append(mid, id)
		}
	}
	if len(mid) > cores {
		return nil, fmt.Sprintf("%d mid-commit txs have durable commit marks (at most %d cores)", len(mid), cores)
	}
	sort.Slice(mid, func(i, j int) bool { return durable[mid[i]] < durable[mid[j]] })

	// Committed-prefix image: baseline, each tracked commit in order,
	// then the durable-marked mid-commit transactions.
	expected := make(map[mem.Addr]mem.Line, len(baseline))
	for a, l := range baseline {
		expected[a] = l
	}
	for _, c := range m.CommitLog() {
		for la, ln := range c.Writes {
			if dataNVM(la) {
				expected[la] = ln
			}
		}
	}
	mids := make([]midCommit, len(mid))
	for i, id := range mid {
		mids[i] = midCommit{id: id, writes: intents[id]}
		for la, ln := range intents[id] {
			expected[la] = ln
		}
	}

	got := make(map[mem.Addr]mem.Line)
	for a, l := range m.Store().SnapshotDurable() {
		if dataNVM(a) {
			got[a] = l
		}
	}
	for a, want := range expected {
		if got[a] != want {
			return nil, fmt.Sprintf("line %#x: durable %x, oracle %x", uint64(a), got[a], want)
		}
	}
	for a, g := range got {
		if _, ok := expected[a]; !ok && g != (mem.Line{}) {
			return nil, fmt.Sprintf("line %#x: unexpected durable data %x", uint64(a), g)
		}
	}
	return mids, ""
}

// dataNVM reports whether a line holds NVM *data* (not hardware log
// area) — the address range the oracle compares.
func dataNVM(a mem.Addr) bool {
	return mem.KindOf(a) == mem.NVM && !mem.InLogArea(a)
}
