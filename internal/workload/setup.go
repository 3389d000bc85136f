package workload

import (
	"sync"
	"time"

	"uhtm/internal/harness"
	"uhtm/internal/mem"
)

// Every Table IV driver prepopulates its structures before the measured
// run, straight through mem.Store: no cache model and no machine option
// takes part, so the prepopulated heap depends on the benchmark and the
// Config alone. A driver therefore builds it once per heapKey on a
// private setup store, freezes that store's live image
// (mem.Store.TakeLive) and lends it copy-on-write to every run of the
// key (mem.Store.Borrow), each with value copies of the setup's arena
// allocators and its structure handles rebound onto them. A lone Run
// takes the same path with one borrower.

// heapKey names one prepopulated heap. The benchmark and the Config
// pick the driver and everything it builds.
type heapKey struct {
	b   Bench
	cfg Config
}

// A heap is one key's prepopulated setup, shared by the runs planned
// for it: the first run to borrow it builds it, and the last one drops
// it, so its pages then live on only in the stores still reading them.
type heap struct {
	mu     sync.Mutex
	left   int // planned runs that have not borrowed yet
	builds int // times built; once per heap (tests check it)

	img    *mem.Frozen
	arenas []mem.Allocator // the setup's arenas, as the build left them
	attach any             // func([]*mem.Allocator) T of the driver's T
}

// take returns the heap's image, arenas and attach function for one
// planned run, building them first with build if this run is the first.
func (h *heap) take(build func(setup *mem.Store) ([]*mem.Allocator, any)) (*mem.Frozen, []mem.Allocator, any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.left == 0 {
		panic("workload: a run borrowed a prepopulated heap it was not planned for")
	}
	if h.img == nil {
		setup := mem.NewStore(mem.DefaultConfig()) // no latency of it is read
		arenas, attach := build(setup)
		h.img, h.attach = setup.TakeLive(), attach
		h.arenas = make([]mem.Allocator, len(arenas))
		for i, al := range arenas {
			h.arenas[i] = *al
		}
		h.builds++
	}
	img, arenas, attach := h.img, h.arenas, h.attach
	if h.left--; h.left == 0 {
		h.img, h.arenas, h.attach = nil, nil, nil
	}
	return img, arenas, attach
}

// borrow lends h's heap to st and returns the driver's structures,
// bound to private copies of the setup's arenas. The first borrower
// builds the heap: build prepopulates the setup store and returns the
// arenas it allocated from, plus attach, which binds the structures it
// built to another set of arenas given in the same order.
func borrow[T any](h *heap, st *mem.Store, build func(setup *mem.Store) ([]*mem.Allocator, func([]*mem.Allocator) T)) T {
	img, arenas, attach := h.take(func(setup *mem.Store) ([]*mem.Allocator, any) {
		return build(setup)
	})
	st.Borrow(img)
	own := make([]*mem.Allocator, len(arenas))
	for i := range arenas {
		al := arenas[i]
		own[i] = &al
	}
	return attach.(func([]*mem.Allocator) T)(own)
}

// A grid is a plan's Table IV runs as harness specs. Runs added with
// equal (benchmark, Config) share one heap; because the grid counts
// them, the heap is dropped after the last of them has borrowed it, at
// any parallelism.
type grid struct {
	specs []harness.Spec[Result]
	heaps map[heapKey]*heap
}

// add plans one run of benchmark b on system s: a fresh engine per run,
// identity metadata mirrored into the result.
func (g *grid) add(exp string, s SystemSpec, b Bench, cfg Config) {
	k := heapKey{b, cfg}
	if g.heaps == nil {
		g.heaps = make(map[heapKey]*heap)
	}
	h := g.heaps[k]
	if h == nil {
		h = &heap{}
		g.heaps[k] = h
	}
	h.left++
	g.specs = append(g.specs, harness.Spec[Result]{
		Experiment:  exp,
		System:      s.Name,
		Bench:       string(b),
		FootprintKB: cfg.FootprintKB,
		Seed:        cfg.Seed,
		Run: func() Result {
			start := time.Now()
			r := run(s, b, cfg, h)
			r.Experiment = exp
			r.Wall = time.Since(start)
			return r
		},
	})
}
