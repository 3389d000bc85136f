package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uhtm/internal/server"
)

// TestUsageListsAllSubcommands is the drift test for the subcommand
// registry: every registered subcommand must appear in the -h text
// (synopsis and description) and in the package doc comment, and every
// name the usage text advertises must dispatch — the bug this fixes is
// `serve`-style subcommands existing in the dispatcher while -h still
// showed only the hand-maintained pair.
func TestUsageListsAllSubcommands(t *testing.T) {
	var buf bytes.Buffer
	usage(flag.NewFlagSet("uhtmsim", flag.ContinueOnError), &buf)
	text := buf.String()

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}

	if len(subcommands) < 3 {
		t.Fatalf("registry has %d subcommands, expected at least serve/loadgen/trace-summary", len(subcommands))
	}
	seen := map[string]bool{}
	for _, sc := range subcommands {
		if seen[sc.name] {
			t.Errorf("subcommand %q registered twice", sc.name)
		}
		seen[sc.name] = true
		if sc.run == nil {
			t.Errorf("subcommand %q has no run function", sc.name)
		}
		if !strings.Contains(text, sc.synopsis) {
			t.Errorf("usage text omits synopsis for %q — it must come from the registry", sc.name)
		}
		if !strings.Contains(text, sc.desc) {
			t.Errorf("usage text omits description for %q", sc.name)
		}
		if !strings.Contains(doc, sc.name) {
			t.Errorf("package doc comment omits subcommand %q — update the Usage block", sc.name)
		}
	}
	for _, name := range []string{"serve", "loadgen", "trace-summary"} {
		if !seen[name] {
			t.Errorf("subcommand %q missing from the registry", name)
		}
	}
}

// TestSubcommandsDispatch: each registered name reaches its own flag
// parser through run(), not the experiment-lookup fallback.
func TestSubcommandsDispatch(t *testing.T) {
	for _, sc := range subcommands {
		var out, errOut bytes.Buffer
		code := run([]string{sc.name, "-definitely-not-a-flag"}, &out, &errOut)
		if code == 0 {
			t.Errorf("%s with a bad flag: exit 0, want nonzero", sc.name)
		}
		if strings.Contains(errOut.String(), "unknown experiment") {
			t.Errorf("%s fell through to experiment lookup:\n%s", sc.name, errOut.String())
		}
	}
}

// startServeCLI boots `uhtmsim serve` through run() on a random port
// using the test seams, returning the bound address and a shutdown
// function that waits for the exit code.
func startServeCLI(t *testing.T, extraArgs ...string) (addr string, stop func() (int, string)) {
	t.Helper()
	ready := make(chan string, 1)
	stopCh := make(chan struct{})
	serveReady, serveStop = ready, stopCh
	t.Cleanup(func() { serveReady, serveStop = nil, nil })

	var out, errOut bytes.Buffer
	codeCh := make(chan int, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-cores", "2", "-buckets", "256"}, extraArgs...)
	go func() { codeCh <- run(args, &out, &errOut) }()
	addr = <-ready
	stopped := false
	var code int
	stop = func() (int, string) {
		if !stopped {
			stopped = true
			close(stopCh)
			code = <-codeCh
		}
		return code, out.String() + errOut.String()
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

// TestServeLoadgenCLI is the CLI-level round trip: serve on a random
// port, loadgen against it writing JSON Lines, clean shutdown.
func TestServeLoadgenCLI(t *testing.T) {
	addr, stop := startServeCLI(t, "-prepopulate", "32")

	outPath := filepath.Join(t.TempDir(), "load.jsonl")
	var lgOut, lgErr bytes.Buffer
	code := run([]string{
		"loadgen", "-addr", addr, "-conns", "2", "-qps", "300",
		"-duration", "250ms", "-keyspace", "32", "-out", outPath,
	}, &lgOut, &lgErr)
	if code != 0 {
		t.Fatalf("loadgen exit %d\nstdout: %s\nstderr: %s", code, lgOut.String(), lgErr.String())
	}
	for _, want := range []string{"requests in", "p50=", "p99=", "p999=", "committed"} {
		if !strings.Contains(lgOut.String(), want) {
			t.Errorf("loadgen summary missing %q:\n%s", want, lgOut.String())
		}
	}

	// The -out file is valid JSON Lines with the loadgen schema.
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var records int
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rep server.LoadReport
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			t.Fatalf("record %d corrupt: %v", records, err)
		}
		if rep.Kind != "loadgen" || rep.Requests == 0 {
			t.Errorf("record %d underspecified: %+v", records, rep)
		}
		records++
	}
	if records != 1 {
		t.Errorf("got %d JSONL records, want 1", records)
	}

	code2, serveLog := stop()
	if code2 != 0 {
		t.Fatalf("serve exit %d\n%s", code2, serveLog)
	}
	for _, want := range []string{"serving on", "shutdown complete"} {
		if !strings.Contains(serveLog, want) {
			t.Errorf("serve log missing %q:\n%s", want, serveLog)
		}
	}
}

// TestLoadgenRejectsBadDist: flag validation happens before any
// connection attempt.
func TestLoadgenRejectsBadDist(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"loadgen", "-dist", "pareto"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "pareto") {
		t.Errorf("stderr does not name the bad distribution: %q", errOut.String())
	}
}

// TestLoadgenUnreachableServer: a dead address is a clean error, not a
// hang or panic.
func TestLoadgenUnreachableServer(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"loadgen", "-addr", "127.0.0.1:1", "-duration", "50ms"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "not reachable") {
		t.Errorf("stderr: %q", errOut.String())
	}
}
