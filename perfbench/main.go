// Command perfbench is the repository's benchmark. One invocation runs
// one workload and prints, as the last line of standard output, one JSON
// object: whether every output checked out, how many operations were
// attempted and failed, and every metric BENCHMARK.json declares —
// the end-to-end metrics on an untraced run, the per-layer metrics on a
// traced one.
//
//	perfbench --workload grid|kv-write-2pc --seed N --seconds S --trace 0|1
//
// It measures every layer from outside: it reads the public results the
// layers return, times calls into their public functions, and counts
// trace events from runs that use the existing trace recorder. See
// README.md for the workloads and what each metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Per-layer metrics of a layer a workload does not run read 0 on it:
// the grid starts no server, and the serving workloads run no grid cell
// (and their server's engines have no trace recorder).
var (
	gridOnly = []string{
		"workload.fig6_s", "workload.fig10_s", "workload.sig_cells_s", "workload.opt_cells_s",
		"cache.l1_hit_rate", "cache.llc_hit_rate", "cache.llc_evicts_per_tx", "core.events_per_tx",
		"sim.host_ns_per_event", "mem.fill_nvm_share", "dramcache.fills_per_tx", "dramcache.hit_share",
		"dramcache.drops_per_abort", "mem.nvm_persists_per_tx", "signature.probes_per_tx", "signature.fp_share",
		"wal.redo_appends_per_commit", "wal.undo_appends_per_commit", "wal.truncates_per_commit",
		"core.commit_sim_ns", "trace.overhead_x",
	}
	servingOnly = []string{
		"gen.late_p50_us", "gen.late_p99_us", "server.batch_size", "server.abort_rate",
		"sim.dispatches_per_req", "sim.virtual_us_per_req", "shard.cross_share", "shard.cross_abort_rate",
		"wal.redo_records_per_commit", "wal.ckpt_records",
		"core.recovery_scanned", "core.recovery_applied", "core.recovery_sim_us",
	}
)

// opts are one invocation's settings.
type opts struct {
	seed    int64
	seconds int
	traced  bool
}

// workloadFunc runs one named input set into out.
type workloadFunc func(o opts, out *result) error

var workloads = map[string]workloadFunc{
	"grid":         runGrid,
	"kv-write-2pc": runKVWrite2PC,
}

func main() {
	name := flag.String("workload", "", "workload to run: grid or kv-write-2pc")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = per-layer run (trace events, layer probes), 0 = end-to-end run")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark description naming every metric")
	flag.Parse()

	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o := opts{seed: *seed, seconds: *seconds, traced: *traceFlag == 1}
	out := newResult(sp, o.traced)
	if err := workloads[*name](o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: peak resident memory %.0f MB\n", *name, peakRSSMB())
	line, err := out.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// spec is the part of BENCHMARK.json the program needs: every metric's
// name and unit, split by the run that emits it.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark description: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &sp, nil
}

// result collects one run's outcome. set rejects a metric the run is not
// meant to emit and finish rejects a run that left one out, so the output
// always carries exactly the declared set.
type result struct {
	known     map[string]bool
	units     map[string]string
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

func newResult(sp *spec, traced bool) *result {
	ms := sp.EndToEnd
	if traced {
		ms = sp.PerLayer
	}
	r := &result{known: map[string]bool{}, units: map[string]string{}, values: map[string]float64{}}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		r.known[m.Name] = true
	}
	for _, m := range ms {
		r.units[m.Name] = m.Unit
	}
	return r
}

// set records one metric of this run.
func (r *result) set(name string, v float64) {
	if !r.known[name] {
		panic("perfbench: metric " + name + " is not declared in the benchmark description")
	}
	if _, ok := r.units[name]; !ok {
		return // the other kind of run emits it
	}
	r.values[name] = v
}

// zero sets metrics of layers this workload does not run.
func (r *result) zero(names []string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// ok counts n operations whose outputs checked out.
func (r *result) ok(n int) { r.attempted += int64(n) }

// fail counts one operation whose output was wrong or missing; the
// first few reasons go to standard error.
func (r *result) fail(format string, a ...any) {
	r.attempted++
	r.failed++
	if len(r.failures) < 10 {
		msg := fmt.Sprintf(format, a...)
		r.failures = append(r.failures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish renders the result line.
func (r *result) finish() ([]byte, error) {
	var missing []string
	metrics := map[string]metricOut{}
	for name, unit := range r.units {
		v, ok := r.values[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		metrics[name] = metricOut{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// medianOf returns the median of xs (0 for none).
func medianOf(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// roundAll returns xs divided by unit and rounded, for diagnostics.
func roundAll(xs []float64, unit float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x / unit)
	}
	return out
}
