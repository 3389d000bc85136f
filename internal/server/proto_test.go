package server

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestRequestRoundTrip checks WriteRequest/ReadRequest are inverses
// over arbitrary binary argument vectors.
func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		argv := make([][]byte, n)
		for i := range argv {
			arg := make([]byte, rng.Intn(64))
			rng.Read(arg)
			argv[i] = arg
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteRequest(w, argv); err != nil {
			t.Fatalf("trial %d: WriteRequest: %v", trial, err)
		}
		w.Flush()
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("trial %d: ReadRequest: %v", trial, err)
		}
		if len(got) != len(argv) {
			t.Fatalf("trial %d: %d args round-tripped to %d", trial, len(argv), len(got))
		}
		for i := range argv {
			if !bytes.Equal(got[i], argv[i]) {
				t.Fatalf("trial %d arg %d: %q != %q", trial, got[i], argv[i], argv[i])
			}
		}
	}
}

// TestInlineRequests checks the nc-friendly inline form.
func TestInlineRequests(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"PING\r\n", []string{"PING"}},
		{"GET 42\n", []string{"GET", "42"}},
		{"PUT 7   hello\r\n", []string{"PUT", "7", "hello"}},
		{"  \r\n", nil}, // blank line → nil argv, connection stays up
		{"\n", nil},
	}
	for _, c := range cases {
		got, err := ReadRequest(bufio.NewReader(strings.NewReader(c.in)))
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		var gs []string
		for _, a := range got {
			gs = append(gs, string(a))
		}
		if !reflect.DeepEqual(gs, c.want) {
			t.Errorf("%q parsed to %v, want %v", c.in, gs, c.want)
		}
	}
}

// TestRequestFraming checks framing violations surface as protocol
// errors (connection must close) rather than panics or silent garbage.
func TestRequestFraming(t *testing.T) {
	bad := []string{
		"*2\r\n$3\r\nGET\r\n:5\r\n", // array element is not a bulk string
		"*-1\r\n",                   // negative array length
		"*1\r\n$-5\r\n",             // negative bulk length
		"*1\r\n$3\r\nGETxx",         // bulk not CRLF-terminated
		"*999999999\r\n",            // array length over MaxArgs
		"*1\r\n$99999999\r\n",       // bulk length over MaxBulk
	}
	for _, in := range bad {
		_, err := ReadRequest(bufio.NewReader(strings.NewReader(in)))
		if err == nil {
			t.Errorf("%q: no error", in)
			continue
		}
		if !IsProtocolError(err) {
			t.Errorf("%q: error %v is not a protocol error", in, err)
		}
	}
}

// TestReplyRoundTrip checks WriteReply/ReadReply are inverses for every
// reply kind, including nesting and the nil bulk.
func TestReplyRoundTrip(t *testing.T) {
	replies := []Reply{
		OK(),
		{Kind: ReplySimple, Str: "PONG"},
		Errf("boom %d", 7),
		Int(0),
		Int(-12345),
		BulkString(nil),
		BulkString([]byte{}),
		BulkString([]byte("hello\nworld\r\nwith framing bytes $*:")),
		{Kind: ReplyArray},
		{Kind: ReplyArray, Array: []Reply{
			BulkString([]byte("1")),
			BulkString(nil),
			Int(9),
			{Kind: ReplyArray, Array: []Reply{OK()}},
		}},
	}
	for i, rep := range replies {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteReply(w, rep); err != nil {
			t.Fatalf("reply %d: write: %v", i, err)
		}
		w.Flush()
		got, err := ReadReply(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("reply %d: read: %v", i, err)
		}
		if !replyEqual(got, rep) {
			t.Errorf("reply %d: %+v round-tripped to %+v", i, rep, got)
		}
	}
}

// replyEqual compares replies treating empty and nil slices alike
// (the wire cannot distinguish an empty array from a nil one).
func replyEqual(a, b Reply) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ReplySimple, ReplyErr:
		return a.Str == b.Str
	case ReplyInt:
		return a.Int == b.Int
	case ReplyBulk:
		return a.Nil == b.Nil && bytes.Equal(a.Bulk, b.Bulk)
	case ReplyArray:
		if len(a.Array) != len(b.Array) {
			return false
		}
		for i := range a.Array {
			if !replyEqual(a.Array[i], b.Array[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// TestCommandTable sanity-checks the registry the dispatch, docs and
// drift tests all hang off.
func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Commands() {
		if c.Name != strings.ToUpper(c.Name) {
			t.Errorf("command %q is not upper-case", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("command %q listed twice", c.Name)
		}
		seen[c.Name] = true
		if c.Desc == "" {
			t.Errorf("command %q has no description", c.Name)
		}
		if _, ok := lookupCommand(c.Name); !ok {
			t.Errorf("command %q not resolvable via lookupCommand", c.Name)
		}
	}
	for _, name := range []string{"GET", "PUT", "SET", "DEL", "SCAN"} {
		c, ok := lookupCommand(name)
		if !ok || !c.InMulti {
			t.Errorf("data command %q must be queueable in MULTI", name)
		}
	}
	if c, _ := lookupCommand("EXEC"); c.InMulti {
		t.Error("EXEC must not itself be queueable")
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request parser: it must
// never panic and never allocate beyond the protocol limits.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\n5\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("*1\r\n$100\r\nshort\r\n"))
	f.Add([]byte("*99999999999999999999\r\n"))
	f.Add([]byte{'*', 0, '\r', '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			argv, err := ReadRequest(r)
			if err != nil {
				return
			}
			for _, a := range argv {
				if len(a) > MaxBulk {
					t.Fatalf("argument of %d bytes exceeds MaxBulk", len(a))
				}
			}
		}
	})
}

// FuzzReadReply feeds arbitrary bytes to the client-side reply parser.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR nope\r\n"))
	f.Add([]byte(":42\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n:1\r\n"))
	f.Add([]byte("*3\r\n*2\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			if _, err := ReadReply(r); err != nil {
				return
			}
		}
	})
}

// replyWireSafe reports whether a reply (recursively) avoids CR/LF in
// its line-framed string fields.
func replyWireSafe(rep Reply) bool {
	if strings.ContainsAny(rep.Str, "\r\n") {
		return false
	}
	for _, el := range rep.Array {
		if !replyWireSafe(el) {
			return false
		}
	}
	return true
}

// FuzzReplyWireRoundTrip: any reply the reader accepts must re-encode
// and re-decode to the same value (the codec is self-consistent on the
// full set of parseable inputs, not just the ones our server emits).
func FuzzReplyWireRoundTrip(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("*2\r\n:1\r\n$-1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReply(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Simple/error strings containing CR/LF cannot survive the wire;
		// the server never emits them, so skip those inputs.
		if !replyWireSafe(rep) {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteReply(w, rep); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		w.Flush()
		back, err := ReadReply(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !replyEqual(rep, back) {
			t.Fatalf("%+v re-round-tripped to %+v", rep, back)
		}
	})
}

// TestParsedValueOutlivesNextRead: a PUT value parsed from one request
// keeps its bytes after the next ReadRequest on the same reader, in
// both request forms — ops hold values past the dispatch (MULTI queues,
// engine batches) without copying them.
func TestParsedValueOutlivesNextRead(t *testing.T) {
	for _, in := range []string{
		"*3\r\n$3\r\nPUT\r\n$1\r\n1\r\n$5\r\nfirst\r\n*3\r\n$3\r\nPUT\r\n$1\r\n2\r\n$5\r\nXXXXX\r\n",
		"PUT 1 first\r\nPUT 2 XXXXX\r\n",
	} {
		r := bufio.NewReaderSize(strings.NewReader(in), 16) // the smallest buffer: every read reuses it
		argv, err := ReadRequest(r)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		op, err := parseOp("PUT", argv)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if _, err := ReadRequest(r); err != nil {
			t.Fatalf("%q: second request: %v", in, err)
		}
		if string(op.Val) != "first" {
			t.Errorf("%q: value reads %q after the next request, want %q", in, op.Val, "first")
		}
	}
}
