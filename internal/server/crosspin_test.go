package server

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/wal"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/cross_pin.txt from the current server")

// crossPinServer builds the two-shard server the cross-shard scripts
// run on, prepopulated so the script updates keys the index already
// holds as well as new ones.
func crossPinServer() *Server {
	return New(Config{Shards: 2, Cores: 2, Buckets: 64, Seed: 42, Prepopulate: 8,
		Geometry: testGeometry(), Options: testOptions()})
}

// pinVal is the script's deterministic value of a given size: sizes up
// to 300 bytes make values that span several NVM lines.
func pinVal(tag string, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = tag[i%len(tag)] + byte(i/len(tag))
	}
	return b
}

// crossScript is the served cross-shard MULTI sequence the pin runs:
// new keys on both shards (enough to split index nodes), updates of
// prepopulated and new keys, a DEL read back in the same MULTI, a MULTI
// that reads its own PUTs, and a read-only MULTI.
func crossScript() [][]Op {
	k0 := keysOnShard(0, 2, 16, 100)
	k1 := keysOnShard(1, 2, 16, 100)
	p0 := keysOnShard(0, 2, 2, 1)
	p1 := keysOnShard(1, 2, 2, 1)
	var script [][]Op
	for half := 0; half < 2; half++ {
		var ops []Op
		for i := half * 8; i < half*8+8; i++ {
			ops = append(ops,
				Op{Kind: OpPut, Key: k0[i], Val: pinVal(fmt.Sprint("a", i), 16+37*i)},
				Op{Kind: OpPut, Key: k1[i], Val: pinVal(fmt.Sprint("b", i), 300-17*i)})
		}
		script = append(script, ops)
	}
	script = append(script,
		[]Op{
			{Kind: OpPut, Key: p0[0], Val: pinVal("upd-p0", 200)},
			{Kind: OpPut, Key: k1[3], Val: pinVal("upd-k1", 24)},
			{Kind: OpPut, Key: p1[1], Val: pinVal("upd-p1", 8)},
			{Kind: OpPut, Key: k0[9], Val: pinVal("upd-k0", 130)},
		},
		[]Op{
			{Kind: OpDel, Key: k0[2]},
			{Kind: OpGet, Key: k0[2]},
			{Kind: OpPut, Key: k1[4], Val: pinVal("after-del", 70)},
			{Kind: OpDel, Key: p1[0]},
		},
		[]Op{
			{Kind: OpPut, Key: k0[5], Val: pinVal("own-0", 90)},
			{Kind: OpGet, Key: k0[5]},
			{Kind: OpPut, Key: k1[5], Val: pinVal("own-1", 150)},
			{Kind: OpGet, Key: k1[5]},
		},
		[]Op{
			{Kind: OpGet, Key: k0[0]},
			{Kind: OpGet, Key: k1[15]},
		},
	)
	return script
}

// pinResults renders op results one per line.
func pinResults(w *strings.Builder, label string, ops []Op, rs []OpResult) {
	for i, r := range rs {
		fmt.Fprintf(w, "%s op%d %v key=%d found=%v written=%v val=%x\n",
			label, i, ops[i].Kind, ops[i].Key, r.Found, r.Written, r.Val)
		for j, k := range r.Keys {
			fmt.Fprintf(w, "%s op%d scan %d=%x\n", label, i, k, r.Vals[j])
		}
	}
}

// pinDurable renders every shard's durable redo windows (each RecWrite
// record's address and image, in ring order) and a digest of its whole
// durable NVM image.
func pinDurable(w *strings.Builder, label string, s *Server) {
	for k, sh := range s.shards {
		m := sh.Machine()
		for c := 0; c < s.cfg.Cores; c++ {
			for _, r := range m.RedoLog(c).Window().Recs {
				if r.Type == wal.RecWrite {
					fmt.Fprintf(w, "%s s%d ring%d write %#x %x\n", label, k, c, uint64(r.Addr), r.Data)
				}
			}
		}
		snap := m.Store().SnapshotDurable()
		addrs := make([]mem.Addr, 0, len(snap))
		for a := range snap {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		h := sha256.New()
		for _, a := range addrs {
			l := snap[a]
			fmt.Fprintf(h, "%x:", uint64(a))
			h.Write(l[:])
		}
		fmt.Fprintf(w, "%s s%d durable %x\n", label, k, h.Sum(nil))
	}
}

// TestCrossShardPin pins the served cross-shard path end to end: the
// replies of a scripted two-shard MULTI sequence, every shard's durable
// redo windows and NVM image after it, the same after a MULTI halted
// before its commit decision, and GET/SCAN over every touched key after
// that recovery. The expected transcript is testdata/cross_pin.txt
// (rewrite it with -update).
func TestCrossShardPin(t *testing.T) {
	s := crossPinServer()
	defer s.Close()
	var w strings.Builder
	script := crossScript()
	touched := map[uint64]bool{}
	for i, ops := range script {
		pinResults(&w, fmt.Sprint("multi", i), ops, runStep(t, s, ops...))
		for _, op := range ops {
			touched[op.Key] = true
		}
	}
	pinDurable(&w, "decided", s)

	k0 := keysOnShard(0, 2, 1, 900)[0]
	k1 := keysOnShard(1, 2, 1, 900)[0]
	in := armShard(s, 1, shard.PointPrepareLogged)
	doomed := []Op{
		{Kind: OpPut, Key: k0, Val: pinVal("doomed-0", 100)},
		{Kind: OpPut, Key: k1, Val: pinVal("doomed-1", 100)},
		{Kind: OpPut, Key: script[0][0].Key, Val: pinVal("doomed-2", 40)},
	}
	req := s.route(doomed)
	req.done = make(chan struct{})
	s.step([]*request{req})
	if !in.Fired() || req.err != errLostPower {
		t.Fatalf("halted MULTI: fired=%v err=%v, want a lost-power failure", in.Fired(), req.err)
	}
	in.Disarm()
	pinDurable(&w, "halted", s)

	keys := []uint64{k0, k1}
	for k := range touched {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		get := []Op{{Kind: OpGet, Key: k}}
		pinResults(&w, "recovered", get, runStep(t, s, get...))
	}
	scan := []Op{{Kind: OpScan, Key: 0, N: 1000}}
	pinResults(&w, "recovered", scan, runStep(t, s, scan...))

	path := filepath.Join("testdata", "cross_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(w.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got := []byte(w.String()); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript has %d lines, want %d", len(gl), len(wl))
	}
}

// TestCrossPrepareRecordsAddressNVMOnly: the script's prepare records
// never name a DRAM line, although its PUTs update the DRAM scan index
// in the same MULTI. DRAM does not survive a power failure, so a redo
// record for it would replay into memory recovery has discarded.
func TestCrossPrepareRecordsAddressNVMOnly(t *testing.T) {
	s := crossPinServer()
	defer s.Close()
	for _, ops := range crossScript() {
		runStep(t, s, ops...)
	}
	prepared := 0
	for k, sh := range s.shards {
		for _, r := range sh.Machine().RedoLog(0).Window().Recs {
			if r.Type != wal.RecWrite || r.TxID < shard.GIDBase {
				continue
			}
			prepared++
			if mem.KindOf(r.Addr) != mem.NVM {
				t.Errorf("shard %d: prepare record %#x addresses DRAM", k, uint64(r.Addr))
			}
		}
	}
	if prepared == 0 {
		t.Fatal("the script left no prepare record")
	}
}

// TestDecidedCrossPutVisibleToScan: a key a decided cross-shard MULTI
// inserted is served by the next SCAN, with no CRASH (and so no index
// rebuild) in between.
func TestDecidedCrossPutVisibleToScan(t *testing.T) {
	s := crossPinServer()
	defer s.Close()
	k0 := keysOnShard(0, 2, 1, 700)[0]
	k1 := keysOnShard(1, 2, 1, 700)[0]
	runStep(t, s, Op{Kind: OpPut, Key: k0, Val: []byte("x0")}, Op{Kind: OpPut, Key: k1, Val: []byte("x1")})
	got := runStep(t, s, Op{Kind: OpScan, Key: 700, N: 2})[0]
	if !slices.Equal(got.Keys, []uint64{min(k0, k1), max(k0, k1)}) {
		t.Fatalf("SCAN from 700 after the cross PUT = %v, want [%d %d]", got.Keys, min(k0, k1), max(k0, k1))
	}
}
