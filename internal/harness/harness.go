// Package harness fans independent simulation runs out across OS
// threads. Each sim.Engine is a self-contained deterministic world — a
// private virtual-time scheduler, store, caches, allocators and RNG with
// no package-global mutable state — so distinct engines may run
// concurrently without any synchronization beyond collecting their
// results. The harness exploits that: it executes a flat list of
// run specifications on a bounded worker pool and reassembles the
// results in spec order, so the output of an experiment is byte-
// identical regardless of the degree of parallelism.
package harness

import (
	"fmt"
	"runtime"
	"sync"
)

// Spec describes one simulation point of an experiment grid. The
// identifying fields are plain data (they name the point in logs and
// JSON records); Run performs the actual simulation in a freshly
// constructed engine and returns its result. Run must be self-contained:
// it must not share mutable state with any other spec's Run, except
// state it synchronizes itself and no result depends on (such as a
// read-only setup several runs borrow).
type Spec[R any] struct {
	Experiment  string
	System      string
	Bench       string
	FootprintKB int
	Seed        int64

	Run func() R
}

// Execute runs every spec and returns the results in spec order.
// At most par specs run concurrently; par <= 0 selects GOMAXPROCS.
// Because each spec is deterministic and results are reassembled by
// index, Execute(specs, 1) and Execute(specs, n) return identical
// values for any n (only wall-clock time differs).
func Execute[R any](specs []Spec[R], par int) []R {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(specs) {
		par = len(specs)
	}
	results := make([]R, len(specs))
	if par <= 1 {
		for i := range specs {
			results[i] = runSpec(specs, i)
		}
		return results
	}
	idx := make(chan int)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		// First panic by spec index: with several workers dying at once,
		// re-panicking the lowest-index failure keeps the report as
		// deterministic as the failure allows.
		panicIdx = -1
		panicVal any
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicIdx < 0 || i < panicIdx {
								panicIdx, panicVal = i, r
							}
							mu.Unlock()
						}
					}()
					results[i] = runSpec(specs, i)
				}()
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicIdx >= 0 {
		// Re-panic on the caller's goroutine so the failure carries a
		// useful stack and does not kill the process from a bare worker.
		panic(panicVal)
	}
	return results
}

// runSpec executes one spec, wrapping any panic with the grid cell's
// identity — a raw panic from deep inside a simulation otherwise gives
// no clue which of dozens of identical-looking runs died.
func runSpec[R any](specs []Spec[R], i int) R {
	defer func() {
		if r := recover(); r != nil {
			s := specs[i]
			panic(fmt.Sprintf("harness: spec %d (experiment=%q system=%q bench=%q footprint=%d seed=%d) panicked: %v",
				i, s.Experiment, s.System, s.Bench, s.FootprintKB, s.Seed, r))
		}
	}()
	return specs[i].Run()
}
