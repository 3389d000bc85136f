package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"uhtm/internal/workload"
)

const specFile = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDescription checks BENCHMARK.json against the program and this
// directory's README: names are well formed and unique, the workloads
// are the ones the program runs, and every metric is documented.
func TestDescription(t *testing.T) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("%s: %v", specFile, err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", name, better)
		}
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("%s is not documented in README.md", name)
		}
	}
	var names []string
	for _, w := range d.Workloads {
		check(w.Name, "", "")
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not run by the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(names), len(workloads))
	}
	setup := false
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, n := range append(append([]string(nil), gridOnly...), servingOnly...) {
		if !seen[n] {
			t.Errorf("%s is zeroed by a workload but not declared", n)
		}
	}
}

var long = flag.Bool("long", false, "also run every workload in both modes (several minutes)")

// TestEveryMetricEmitted runs each workload once in each mode and
// checks that the run emits every declared metric and fails nothing.
func TestEveryMetricEmitted(t *testing.T) {
	if !*long {
		t.Skip("run with -long")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", n, traced), func(t *testing.T) {
				out := newResult(sp, traced)
				if err := workloads[n](opts{seed: 1, seconds: 2, traced: traced}, out); err != nil {
					t.Fatal(err)
				}
				line, err := out.finish()
				if err != nil {
					t.Fatal(err)
				}
				if out.failed > 0 {
					t.Errorf("%d of %d operations failed: %s", out.failed, out.attempted, line)
				}
			})
		}
	}
}

var update = flag.Bool("update", false, "rewrite grid_reference.tsv from the current program")

// TestGridReference re-records the grid's reference digests. It runs
// only with -update, after a change that is meant to alter the figures.
func TestGridReference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to re-record grid_reference.tsv")
	}
	var rs []workload.Result
	for _, exp := range gridExperiments {
		_, r, err := workload.RunExperiment(exp, workload.RunOptions{Scale: gridScale, Par: gridPar})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r...)
	}
	_, r, err := workload.RunExperiment("recovery", workload.RunOptions{Scale: recoveryScale, Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, r...)
	var b strings.Builder
	b.WriteString("# cell\tdigest of its deterministic statistics (see digest in grid.go)\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "%s\t%s\n", resultKey(r), digest(r))
	}
	if err := os.WriteFile("grid_reference.tsv", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
