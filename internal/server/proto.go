package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// The wire protocol is a RESP (REdis Serialization Protocol) subset:
// requests are either RESP arrays of bulk strings (what client
// libraries and the load generator send) or inline commands — a single
// space-separated line, nc/telnet friendly. Replies use the five RESP
// reply kinds: simple string (+OK), error (-ERR ...), integer (:1),
// bulk string ($n\r\n...\r\n, with $-1 as nil) and array (*n followed
// by n replies). SERVING.md is the operator-facing reference; a drift
// test asserts it documents every command in this table.

// Command describes one wire command: its name, argument synopsis,
// whether it may be queued inside a MULTI block, and a one-line
// description. Commands() is the single source of truth the server
// dispatch, SERVING.md drift test and usage text all derive from.
type Command struct {
	Name    string
	Args    string // synopsis, e.g. "key value"
	InMulti bool   // may appear between MULTI and EXEC
	Desc    string
}

// commandTable lists every command the server implements.
var commandTable = []Command{
	{"PING", "", false, "liveness probe; replies +PONG"},
	{"GET", "key", true, "read one key; bulk value or nil when absent"},
	{"PUT", "key value", true, "insert or update one key; +OK"},
	{"SET", "key value", true, "alias of PUT (redis-cli compatibility)"},
	{"DEL", "key", true, "remove one key; :1 if it existed, :0 otherwise"},
	{"SCAN", "start count", true, "up to count keys >= start in order; array of key,value pairs"},
	{"MULTI", "", false, "open a batch; queued ops run as ONE durable transaction at EXEC"},
	{"EXEC", "", false, "commit the queued batch atomically; array of per-op replies"},
	{"DISCARD", "", false, "drop the queued batch; +OK"},
	{"STATS", "", false, "server counters as a JSON bulk string"},
	{"CRASH", "", false, "simulated power failure + recovery (testing/ops drill); +OK"},
	{"QUIT", "", false, "close the connection; +OK"},
}

// Commands returns the command table (copy).
func Commands() []Command {
	out := make([]Command, len(commandTable))
	copy(out, commandTable)
	return out
}

// lookupCommand resolves an (upper-cased) command name.
func lookupCommand(name string) (Command, bool) {
	for _, c := range commandTable {
		if c.Name == name {
			return c, true
		}
	}
	return Command{}, false
}

// Protocol limits: a single oversized frame must not let one connection
// exhaust the process.
const (
	// MaxArgs bounds the element count of a request array.
	MaxArgs = 1 << 16
	// MaxBulk bounds one bulk-string payload (1 MB).
	MaxBulk = 1 << 20
	// MaxInline bounds one inline command line.
	MaxInline = 1 << 16
)

// errProtocol wraps unrecoverable framing errors: after one of these
// the byte stream position is unknown and the connection must close.
var errProtocol = errors.New("protocol error")

// IsProtocolError reports whether err is an unrecoverable framing
// error (the connection cannot be resynchronized).
func IsProtocolError(err error) bool { return errors.Is(err, errProtocol) }

// ReadRequest reads one request — a RESP array of bulk strings or an
// inline command line — returning the argument vector. Every argument
// is freshly allocated, never an alias of r's buffer, so it stays valid
// after the next read. io errors pass through; framing violations
// return an error satisfying IsProtocolError.
func ReadRequest(r *bufio.Reader) ([][]byte, error) {
	first, err := r.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] == '*' {
		return readArray(r)
	}
	return readInline(r)
}

// readLine reads up to CRLF (LF tolerated for inline/nc use),
// returning the line without its terminator.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) > max {
		return nil, fmt.Errorf("%w: line exceeds %d bytes", errProtocol, max)
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	line = bytes.TrimSuffix(line, []byte("\r"))
	return line, nil
}

// readInline parses a space-separated command line. Empty lines yield
// a nil argv (callers skip them — they keep nc sessions forgiving).
func readInline(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r, MaxInline)
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, nil
	}
	return fields, nil
}

// readArray parses *N\r\n followed by N bulk strings.
func readArray(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r, MaxInline)
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 0 || n > MaxArgs {
		return nil, fmt.Errorf("%w: bad array header %q", errProtocol, line)
	}
	argv := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		arg, err := readBulk(r)
		if err != nil {
			return nil, err
		}
		argv = append(argv, arg)
	}
	return argv, nil
}

// readBulk parses $len\r\n<len bytes>\r\n.
func readBulk(r *bufio.Reader) ([]byte, error) {
	line, err := readLine(r, MaxInline)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '$' {
		return nil, fmt.Errorf("%w: expected bulk string, got %q", errProtocol, line)
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 0 || n > MaxBulk {
		return nil, fmt.Errorf("%w: bad bulk length %q", errProtocol, line)
	}
	buf := make([]byte, n+2)
	if _, err := readFull(r, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk string not CRLF-terminated", errProtocol)
	}
	return buf[:n], nil
}

// readFull fills buf from r (bufio.Reader has no ReadFull; io.ReadFull
// would bypass its buffer accounting on some paths — keep it explicit).
func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteRequest writes argv as a RESP array of bulk strings — the
// client-side encoder the load generator uses; ReadRequest is its
// inverse (round-trip tested).
func WriteRequest(w *bufio.Writer, argv [][]byte) error {
	if _, err := fmt.Fprintf(w, "*%d\r\n", len(argv)); err != nil {
		return err
	}
	for _, a := range argv {
		if _, err := fmt.Fprintf(w, "$%d\r\n", len(a)); err != nil {
			return err
		}
		if _, err := w.Write(a); err != nil {
			return err
		}
		if _, err := w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	return nil
}

// Reply is one decoded server reply: exactly one kind is populated.
type Reply struct {
	Kind  ReplyKind
	Str   string  // Simple and Err text, e.g. "OK"
	Int   int64   // Int replies
	Bulk  []byte  // Bulk replies; nil for the nil bulk
	Nil   bool    // Bulk: distinguishes $-1 from $0
	Array []Reply // Array replies
}

// ReplyKind discriminates the RESP reply kinds.
type ReplyKind int

// The RESP reply kinds.
const (
	// ReplySimple is +text.
	ReplySimple ReplyKind = iota
	// ReplyErr is -text.
	ReplyErr
	// ReplyInt is :n.
	ReplyInt
	// ReplyBulk is $n payload (or the $-1 nil).
	ReplyBulk
	// ReplyArray is *n nested replies.
	ReplyArray
)

// WriteReply encodes one reply.
func WriteReply(w *bufio.Writer, rep Reply) error {
	switch rep.Kind {
	case ReplySimple:
		_, err := fmt.Fprintf(w, "+%s\r\n", rep.Str)
		return err
	case ReplyErr:
		_, err := fmt.Fprintf(w, "-%s\r\n", rep.Str)
		return err
	case ReplyInt:
		_, err := fmt.Fprintf(w, ":%d\r\n", rep.Int)
		return err
	case ReplyBulk:
		if rep.Nil {
			_, err := w.WriteString("$-1\r\n")
			return err
		}
		if _, err := fmt.Fprintf(w, "$%d\r\n", len(rep.Bulk)); err != nil {
			return err
		}
		if _, err := w.Write(rep.Bulk); err != nil {
			return err
		}
		_, err := w.WriteString("\r\n")
		return err
	case ReplyArray:
		if _, err := fmt.Fprintf(w, "*%d\r\n", len(rep.Array)); err != nil {
			return err
		}
		for _, el := range rep.Array {
			if err := WriteReply(w, el); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("server: unknown reply kind %d", rep.Kind)
	}
}

// ReadReply decodes one reply — the client-side decoder.
func ReadReply(r *bufio.Reader) (Reply, error) {
	line, err := readLine(r, MaxInline)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, fmt.Errorf("%w: empty reply line", errProtocol)
	}
	switch line[0] {
	case '+':
		return Reply{Kind: ReplySimple, Str: string(line[1:])}, nil
	case '-':
		return Reply{Kind: ReplyErr, Str: string(line[1:])}, nil
	case ':':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil {
			return Reply{}, fmt.Errorf("%w: bad integer reply %q", errProtocol, line)
		}
		return Reply{Kind: ReplyInt, Int: n}, nil
	case '$':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n > MaxBulk {
			return Reply{}, fmt.Errorf("%w: bad bulk header %q", errProtocol, line)
		}
		if n < 0 {
			return Reply{Kind: ReplyBulk, Nil: true}, nil
		}
		buf := make([]byte, n+2)
		if _, err := readFull(r, buf); err != nil {
			return Reply{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Reply{}, fmt.Errorf("%w: bulk reply not CRLF-terminated", errProtocol)
		}
		return Reply{Kind: ReplyBulk, Bulk: buf[:n]}, nil
	case '*':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < 0 || n > MaxArgs {
			return Reply{}, fmt.Errorf("%w: bad array header %q", errProtocol, line)
		}
		out := Reply{Kind: ReplyArray, Array: make([]Reply, 0, n)}
		for i := 0; i < n; i++ {
			el, err := ReadReply(r)
			if err != nil {
				return Reply{}, err
			}
			out.Array = append(out.Array, el)
		}
		return out, nil
	default:
		return Reply{}, fmt.Errorf("%w: unknown reply type %q", errProtocol, line[0])
	}
}

// Convenience reply constructors.

// OK is the +OK reply.
func OK() Reply { return Reply{Kind: ReplySimple, Str: "OK"} }

// Errf builds an -ERR reply.
func Errf(format string, a ...any) Reply {
	return Reply{Kind: ReplyErr, Str: "ERR " + fmt.Sprintf(format, a...)}
}

// BulkString builds a bulk reply from b (nil b is the nil bulk).
func BulkString(b []byte) Reply {
	if b == nil {
		return Reply{Kind: ReplyBulk, Nil: true}
	}
	return Reply{Kind: ReplyBulk, Bulk: b}
}

// Int builds an integer reply.
func Int(n int64) Reply { return Reply{Kind: ReplyInt, Int: n} }

// parseKey parses a wire key: keys are decimal unsigned 64-bit
// integers (the txds structures key by uint64; SERVING.md documents
// the restriction).
func parseKey(b []byte) (uint64, error) {
	k, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("key %q is not a decimal uint64", b)
	}
	return k, nil
}
