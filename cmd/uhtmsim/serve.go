package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uhtm/internal/server"
)

// subcommand is one named CLI mode. The registry below is the single
// source of truth for dispatch (run consults it before treating the
// first argument as an experiment name) and for the synopsis and
// subcommand blocks of the usage text — so a subcommand cannot exist
// in the dispatcher without appearing in -h, and vice versa. A drift
// test additionally pins the package doc comment to this table.
type subcommand struct {
	name     string
	synopsis string
	desc     string
	run      func(args []string, stdout, stderr io.Writer) int
}

// subcommands lists every uhtmsim subcommand.
var subcommands = []subcommand{
	{
		name:     "serve",
		synopsis: "uhtmsim serve [-addr host:port] [-shards n] [-cores n] [-prepopulate n] [-seed n]",
		desc:     "run the durable KV store as a long-lived network service (see SERVING.md)",
		run:      serveCmd,
	},
	{
		name:     "loadgen",
		synopsis: "uhtmsim loadgen [-addr host:port] [-qps f] [-conns n] [-duration d] [-out path]",
		desc:     "drive a running server with open-loop load; latency percentiles as JSON Lines",
		run:      loadgenCmd,
	},
	{
		name:     "trace-summary",
		synopsis: "uhtmsim trace-summary <trace.json>",
		desc:     "print a per-transaction table from a -trace Chrome trace file",
		run:      traceSummaryCmd,
	},
}

// traceSummaryCmd adapts traceSummary to the subcommand signature.
func traceSummaryCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: uhtmsim trace-summary <trace.json>")
		return 2
	}
	return traceSummary(stdout, stderr, args[0])
}

// Test seams for serveCmd: serveReady (when non-nil) receives the bound
// address once the listener is live; serveStop (when non-nil) replaces
// OS signal delivery as the shutdown trigger.
var (
	serveReady chan<- string
	serveStop  <-chan struct{}
)

// serveCmd boots the long-lived server and blocks until SIGINT/SIGTERM,
// then drains and checkpoints (server.Close) before exiting.
func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uhtmsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:6421", "TCP listen address (port 0 picks a free port)")
	shards := fs.Int("shards", 1, "key-hashed shards; >1 runs cross-shard MULTI batches through 2PC")
	cores := fs.Int("cores", 4, "simulated cores per shard = requests executing concurrently")
	buckets := fs.Int("buckets", 1<<15, "NVM hash-table buckets")
	seed := fs.Int64("seed", 42, "engine RNG seed")
	prepop := fs.Int("prepopulate", 0, "insert keys 1..n before serving")
	valsize := fs.Int("valsize", 64, "prepopulated value size in bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	s := server.New(server.Config{
		Addr:            *addr,
		Shards:          *shards,
		Cores:           *cores,
		Buckets:         *buckets,
		Seed:            *seed,
		Prepopulate:     *prepop,
		PrepopValueSize: *valsize,
	})
	if err := s.Listen(); err != nil {
		fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "uhtmsim: serving on %s (shards=%d, cores=%d, prepopulated=%d)\n", s.Addr(), *shards, *cores, *prepop)
	if serveReady != nil {
		serveReady <- s.Addr().String()
	}
	if serveStop != nil {
		<-serveStop
	} else {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		sig := <-sigCh
		signal.Stop(sigCh)
		fmt.Fprintf(stdout, "uhtmsim: received %v — draining connections, checkpointing WAL\n", sig)
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(stderr, "uhtmsim: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "uhtmsim: shutdown complete")
	return 0
}

// loadgenCmd runs the open-loop load generator against a live server
// and reports the latency/throughput summary (human-readable to stdout,
// one JSON line to -out).
func loadgenCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uhtmsim loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:6421", "server address")
	conns := fs.Int("conns", 4, "concurrent connections")
	qps := fs.Float64("qps", 2000, "total target request rate (open loop)")
	dur := fs.Duration("duration", 2*time.Second, "run duration")
	keyspace := fs.Uint64("keyspace", 10000, "keys drawn from [1, keyspace]")
	dist := fs.String("dist", server.DistZipf, "key distribution: zipf or uniform")
	zipfS := fs.Float64("zipf-s", 1.2, "Zipf skew parameter (>1)")
	readfrac := fs.Float64("readfrac", 0.8, "fraction of read requests (an explicit 0 means write-only)")
	scanfrac := fs.Float64("scanfrac", 0, "fraction of reads that are SCANs")
	crossfrac := fs.Float64("crossfrac", 0, "fraction of requests forced onto >=2 shards as MULTI..EXEC (sharded server only)")
	scancount := fs.Int("scancount", 10, "SCAN count argument")
	batch := fs.Int("batch", 1, "ops per request; >1 wraps them in MULTI..EXEC")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	outPath := fs.String("out", "", "append the JSON record to this file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *dist != server.DistZipf && *dist != server.DistUniform {
		fmt.Fprintf(stderr, "uhtmsim: unknown distribution %q (want zipf or uniform)\n", *dist)
		return 2
	}
	var out io.Writer
	if *outPath == "-" {
		out = stdout
	} else if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	readfracSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "readfrac" {
			readfracSet = true
		}
	})
	rep, err := server.RunLoad(server.LoadConfig{
		Addr:        *addr,
		Conns:       *conns,
		QPS:         *qps,
		Duration:    *dur,
		KeySpace:    *keyspace,
		Dist:        *dist,
		ZipfS:       *zipfS,
		ReadFrac:    *readfrac,
		ReadFracSet: readfracSet,
		ScanFrac:    *scanfrac,
		CrossFrac:   *crossfrac,
		ScanCount:   *scancount,
		BatchSize:   *batch,
		Seed:        *seed,
		Out:         out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "uhtmsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "loadgen: %d requests in %.2fs — %.0f req/s achieved (target %.0f), %d errors\n",
		rep.Requests, rep.DurationS, rep.AchievedQPS, rep.TargetQPS, rep.Errors)
	fmt.Fprintf(stdout, "loadgen: latency p50=%.0fµs p99=%.0fµs p999=%.0fµs max=%.0fµs\n",
		rep.P50us, rep.P99us, rep.P999us, rep.MaxUs)
	fmt.Fprintf(stdout, "loadgen: server committed %d txs, aborted %d (abort rate %.3f)\n",
		rep.Commits, rep.Aborts, rep.AbortRate)
	if rep.CrossFrac > 0 {
		fmt.Fprintf(stdout, "loadgen: cross-shard 2PC committed %d txs, aborted %d\n",
			rep.CrossCommits, rep.CrossAborts)
	}
	if rep.WorkersDied > 0 {
		fmt.Fprintf(stdout, "loadgen: %d worker(s) died mid-run (last error: %s) — run is invalid\n",
			rep.WorkersDied, rep.LastError)
	}
	if rep.Saturated {
		fmt.Fprintln(stdout, "loadgen: SATURATED — the server could not hold the target rate; achieved QPS is the saturation throughput")
	}
	return 0
}
