package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Run is one engine world's trace plus the label identifying which grid
// cell produced it (experiment/system/bench/footprint/seed). WriteChrome
// maps each Run to one Chrome trace "process".
type Run struct {
	Label  string
	Events []Event
}

// machineTID is the synthetic Chrome thread ID hosting machine-level
// events (Core == -1): LLC, DRAM cache, NVM and checkpoint activity.
const machineTID = 1000

// chromeEvent is the Chrome trace-event wire format (the subset we
// emit). Field order here fixes the byte layout of the output.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(ps int64) float64 { return float64(ps) / 1e6 }

// WriteChrome renders runs as a Chrome trace-event JSON object that
// loads in Perfetto or chrome://tracing: one process per run, one track
// per core (plus a "machine" track for shared structures), an "X" slice
// per transaction attempt, and flow arrows from each abort's enemy to
// its victim. Per-access events (reads, cache lookups, fills) are
// aggregated into the slice args rather than emitted individually, to
// keep files loadable; the full event stream remains available via
// Events/Summarize.
//
// causeName maps numeric abort-cause codes to names (pass
// stats.AbortCause semantics from the caller; nil falls back to the
// numeric code). Output is deterministic: a fixed seed and scale
// produce identical bytes at any harness parallelism.
func WriteChrome(w io.Writer, runs []Run, causeName func(uint64) string) error {
	if causeName == nil {
		causeName = func(c uint64) string { return fmt.Sprintf("cause-%d", c) }
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	for pid, run := range runs {
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": run.Label},
		}); err != nil {
			return err
		}
		// Name every track seen in this run, in ascending tid order.
		seen := map[int]bool{}
		var tids []int
		for i := range run.Events {
			tid := trackOf(run.Events[i].Core)
			if !seen[tid] {
				seen[tid] = true
				tids = append(tids, tid)
			}
		}
		slices.Sort(tids)
		for _, tid := range tids {
			name := "machine"
			if tid != machineTID {
				name = fmt.Sprintf("core %d", tid)
			}
			if err := emit(chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": name},
			}); err != nil {
				return err
			}
		}

		// One slice per transaction attempt, carrying its summary.
		for _, s := range Summarize(run.Events) {
			dur := usec(s.End - s.Start)
			outcome := "in-flight"
			switch {
			case s.Committed:
				outcome = "commit"
			case s.Enemy != 0 || s.CauseCode != 0 || s.EnemyCore >= 0:
				outcome = "abort:" + causeName(s.CauseCode)
			}
			args := map[string]any{
				"tx":       s.ID,
				"domain":   s.Domain,
				"attempt":  s.Attempt,
				"slow":     s.SlowPath,
				"reads":    s.Reads,
				"writes":   s.Writes,
				"wal":      s.WALAppends,
				"outcome":  outcome,
				"overflow": s.Overflowed,
			}
			if s.Overflowed {
				args["overflow_ts_us"] = usec(s.OverflowTS)
			}
			if s.Enemy != 0 {
				args["enemy"] = s.Enemy
			}
			if err := emit(chromeEvent{
				Name: "tx" + strconv.FormatUint(s.ID, 10), Cat: "tx",
				Ph: "X", TS: usec(s.Start), Dur: &dur,
				PID: pid, TID: s.Core, Args: args,
			}); err != nil {
				return err
			}
		}

		// Instant events and abort flow arrows, in timeline order.
		for i := range run.Events {
			e := &run.Events[i]
			ce, ok := instantFor(e, pid, causeName)
			if ok {
				if err := emit(ce); err != nil {
					return err
				}
			}
			if e.Kind == EvTxAbort && int(e.Addr) > 0 {
				// Arrow from the enemy's core to the victim's.
				id := "abort" + strconv.FormatUint(e.TxID, 10)
				if err := emit(chromeEvent{
					Name: "abort", Cat: "abort", Ph: "s",
					TS: usec(e.TS), PID: pid, TID: int(e.Addr) - 1, ID: id,
				}); err != nil {
					return err
				}
				if err := emit(chromeEvent{
					Name: "abort", Cat: "abort", Ph: "f", BP: "e",
					TS: usec(e.TS), PID: pid, TID: int(e.Core), ID: id,
				}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// trackOf maps an event core to a Chrome thread ID.
func trackOf(core int32) int {
	if core < 0 {
		return machineTID
	}
	return int(core)
}

// instantFor converts one event to a Chrome instant, or reports false
// for the per-access kinds that are aggregated into the tx slices.
func instantFor(e *Event, pid int, causeName func(uint64) string) (chromeEvent, bool) {
	ce := chromeEvent{Ph: "i", S: "t", TS: usec(e.TS), PID: pid, TID: trackOf(e.Core)}
	switch e.Kind {
	case EvTxOverflow:
		ce.Name, ce.Cat = "overflow", "tx"
		ce.Args = map[string]any{"tx": e.TxID}
	case EvTxAbort:
		ce.Name, ce.Cat = "abort:"+causeName(e.Arg), "tx"
		ce.Args = map[string]any{"tx": e.TxID}
		if e.Arg2 != 0 {
			ce.Args["enemy"] = e.Arg2
		}
	case EvTxCommitBegin:
		ce.Name, ce.Cat = "commit-begin", "tx"
		ce.Args = map[string]any{"tx": e.TxID}
	case EvTxCommitMark:
		ce.Name, ce.Cat = "commit-mark", "tx"
		ce.Args = map[string]any{"tx": e.TxID, "lsn": e.Arg}
	case EvTxCommitDone:
		ce.Name, ce.Cat = "commit-done", "tx"
		ce.Args = map[string]any{"tx": e.TxID}
	case EvSlowPathWait:
		ce.Name, ce.Cat = "slow-path-wait", "lock"
		ce.Args = map[string]any{"wait_us": usec(int64(e.Arg)), "acquire": e.Arg2 != 0}
	case EvSigProbe:
		if e.Arg == 0 {
			return ce, false // only conflicting probes are interesting
		}
		verdict := "true-conflict"
		if e.Arg == 2 {
			verdict = "false-positive"
		}
		ce.Name, ce.Cat = "sig-"+verdict, "sig"
		ce.Args = map[string]any{"tx": e.TxID, "against": e.Arg2, "addr": hexAddr(e.Addr)}
	case EvSigOccupancy:
		ce.Name, ce.Cat = "sig-occupancy", "sig"
		ce.Args = map[string]any{
			"tx":         e.TxID,
			"write_fill": float64(e.Arg) / 1e4,
			"read_fill":  float64(e.Arg2) / 1e4,
		}
	case EvWALTruncate:
		ring := "undo"
		if e.Arg>>8 != 0 {
			ring = "redo"
		}
		ce.Name, ce.Cat = "wal-"+ring+"-truncate", "wal"
		ce.Args = map[string]any{"tail": e.Arg2}
	case EvWALCheckpoint:
		ce.Name, ce.Cat = "checkpoint", "wal"
		ce.Args = map[string]any{"lsn": e.Arg}
	default:
		// Per-access and per-line kinds (reads/writes, cache lookups,
		// fills, evictions, DRAM-cache traffic, log appends, NVM
		// persists) are summarized in the tx slices, not emitted — a
		// full-scale run produces millions of them, which no trace
		// viewer loads. The raw stream keeps every one.
		return ce, false
	}
	return ce, true
}

func hexAddr(a uint64) string { return "0x" + strconv.FormatUint(a, 16) }

// ChromeTx is one transaction slice read back from a Chrome trace file
// — the rows behind the trace-summary command.
type ChromeTx struct {
	Run     string
	Core    int
	Name    string
	StartUS float64
	DurUS   float64
	Attempt int
	Slow    bool
	Reads   int
	Writes  int
	WAL     int
	Outcome string
	Enemy   uint64
}

// ReadChromeTxs parses a Chrome trace-event file produced by
// WriteChrome and returns its transaction slices in file order.
func ReadChromeTxs(r io.Reader) ([]ChromeTx, error) {
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("trace: not a Chrome trace-event file: %w", err)
	}
	procs := map[int]string{}
	var out []ChromeTx
	for _, raw := range file.TraceEvents {
		var e chromeEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, err
		}
		if e.Ph == "M" && e.Name == "process_name" {
			if n, ok := e.Args["name"].(string); ok {
				procs[e.PID] = n
			}
			continue
		}
		if e.Ph != "X" || e.Cat != "tx" {
			continue
		}
		tx := ChromeTx{
			Run: procs[e.PID], Core: e.TID, Name: e.Name,
			StartUS: e.TS,
		}
		if e.Dur != nil {
			tx.DurUS = *e.Dur
		}
		tx.Attempt = int(argFloat(e.Args, "attempt"))
		tx.Slow, _ = e.Args["slow"].(bool)
		tx.Reads = int(argFloat(e.Args, "reads"))
		tx.Writes = int(argFloat(e.Args, "writes"))
		tx.WAL = int(argFloat(e.Args, "wal"))
		tx.Outcome, _ = e.Args["outcome"].(string)
		tx.Enemy = uint64(argFloat(e.Args, "enemy"))
		out = append(out, tx)
	}
	return out, nil
}

func argFloat(args map[string]any, key string) float64 {
	f, _ := args[key].(float64)
	return f
}
