// Package crash is the crash-point fault-injection framework: it
// enumerates the named injection points threaded through the simulator's
// durability paths (internal/wal log appends and reclamation,
// internal/core's parallel DRAM-undo/NVM-redo commit and abort
// protocols, internal/mem's per-line durable updates), kills a
// simulation at any chosen point via sim.Engine.HaltNow, runs
// post-crash recovery, and checks the recovered NVM image against a
// committed-prefix oracle computed independently of the recovery code.
//
// The invariants verified at every injection (see RECOVERY.md):
//
//  1. Committed-prefix equality: the recovered durable NVM state equals
//     baseline + the writes of exactly the transactions whose commit
//     records were durable at the crash (applied in commit/LSN order),
//     no more and no less.
//  2. Atomicity: no transaction is ever partially applied — torn or
//     truncated log records are detected (record checksums) and
//     skipped, and write records without a durable commit mark are
//     discarded.
//  3. Durability: every transaction acknowledged committed before the
//     crash survives recovery.
//  4. DRAM volatility: the DRAM side (undo logs, DRAM cache, DRAM data)
//     is fully discarded; no redo record ever references DRAM.
//
// Injection points are named <package>.<protocol>.<step> (e.g.
// core.commit.mark, wal.redo.append.record, mem.persist.line). One
// driver sweeps any Target — the single-machine Workload here, the
// sharded cluster in internal/shard: Enumerate runs the target once
// with a counting injector to discover every point and its visit
// count, and RunInjection replays it once per (point, visit) pair —
// exhaustively for small targets, seeded-random sampling for large
// ones — then crashes, recovers and verifies it. Each replay is a
// self-contained world, so sweeps fan out across the internal/harness
// worker pool with deterministic results at any parallelism.
package crash

import (
	"sort"

	"uhtm/internal/sim"
)

// Injection identifies one crash to inject: the simulation is killed at
// the Visit-th time (1-based) the named point is reached.
type Injection struct {
	Point string
	Visit int
}

// Injector is the hook installed at every instrumented protocol step
// (via Machine.SetCrashpoint). In counting mode it only tallies visits;
// armed, it tells the caller to halt at the configured (point, visit).
type Injector struct {
	point    string // armed point ("" = counting only)
	visit    int    // 1-based visit to crash at
	fired    bool
	disarmed bool
	hits     map[string]int
}

// NewCounter returns an injector that only counts visits (the
// enumeration pass of a sweep).
func NewCounter() *Injector {
	return &Injector{hits: make(map[string]int)}
}

// Arm returns an injector that fires at the given injection.
func Arm(inj Injection) *Injector {
	return &Injector{point: inj.Point, visit: inj.Visit, hits: make(map[string]int)}
}

// Hit records one visit of the named point and reports whether this is
// the armed (point, visit): the caller's crashpoint hook then halts its
// own engine (sim.Engine.HaltNow), so one injector can serve every
// engine of a multi-engine target.
func (in *Injector) Hit(point string) bool {
	if in.disarmed {
		return false
	}
	in.hits[point]++
	if !in.fired && in.point == point && in.hits[point] == in.visit {
		in.fired = true
		in.disarmed = true
		return true
	}
	return false
}

// HaltHook returns a crashpoint hook that records each visit under
// prefix+point and halts eng when the injection fires. A multi-engine
// target installs one hook per engine, each with its own prefix.
func (in *Injector) HaltHook(prefix string, eng *sim.Engine) func(string) {
	return func(point string) {
		if in.Hit(prefix + point) {
			eng.HaltNow()
		}
	}
}

// Fired reports whether the armed crash was injected.
func (in *Injector) Fired() bool { return in.fired }

// Disarm stops all counting and firing — called before recovery runs,
// so the recovery path's own persists don't re-trigger.
func (in *Injector) Disarm() { in.disarmed = true }

// Hits returns the visit count per point (counting mode).
func (in *Injector) Hits() map[string]int { return in.hits }

// enumerate expands visit counts into the exhaustive injection list:
// one entry per (point, visit) pair, points sorted, visits ascending.
func enumerate(hits map[string]int) []Injection {
	points := make([]string, 0, len(hits))
	for p := range hits {
		points = append(points, p)
	}
	sort.Strings(points)
	var out []Injection
	for _, p := range points {
		for k := 1; k <= hits[p]; k++ {
			out = append(out, Injection{Point: p, Visit: k})
		}
	}
	return out
}
