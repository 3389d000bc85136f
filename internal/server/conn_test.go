package server

import (
	"bufio"
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Write calls the server makes on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// serveCounted connects a client to s over loopback TCP and serves the
// server side through a countingConn, as acceptLoop would. It returns
// the client end and the server's write counter.
func serveCounted(t *testing.T, s *Server) (*net.TCPConn, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	srv, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	writes := new(atomic.Int64)
	conn := countingConn{srv, writes}
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connWG.Add(1)
	s.connMu.Unlock()
	go s.handleConn(conn)
	return client.(*net.TCPConn), writes
}

// readReplies reads n replies from the client end.
func readReplies(t *testing.T, c net.Conn, r *bufio.Reader, n int) []Reply {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	out := make([]Reply, n)
	for i := range out {
		rep, err := ReadReply(r)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		out[i] = rep
	}
	return out
}

// TestPipelinedMultiRepliesInOneWrite: a MULTI, two SETs and an EXEC
// sent in one burst get their four replies in one write.
func TestPipelinedMultiRepliesInOneWrite(t *testing.T) {
	s := startServer(t, Config{})
	c, writes := serveCounted(t, s)
	var req bytes.Buffer
	w := bufio.NewWriter(&req)
	for _, argv := range [][]string{{"MULTI"}, {"SET", "1", "a"}, {"SET", "2", "b"}, {"EXEC"}} {
		args := make([][]byte, len(argv))
		for i, a := range argv {
			args[i] = []byte(a)
		}
		WriteRequest(w, args)
	}
	w.Flush()
	if _, err := c.Write(req.Bytes()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	reps := readReplies(t, c, bufio.NewReader(c), 4)
	if reps[0].Str != "OK" || reps[1].Str != "QUEUED" || reps[2].Str != "QUEUED" {
		t.Fatalf("replies = %+v", reps)
	}
	if exec := reps[3]; exec.Kind != ReplyArray || len(exec.Array) != 2 || exec.Array[0].Str != "OK" || exec.Array[1].Str != "OK" {
		t.Fatalf("EXEC reply = %+v", exec)
	}
	if n := writes.Load(); n != 1 {
		t.Errorf("4 pipelined replies took %d writes, want 1", n)
	}
}

// TestHalfClosedClientGetsEveryReply: a client that sends its requests
// and then closes its write side still reads every reply before EOF.
func TestHalfClosedClientGetsEveryReply(t *testing.T) {
	s := startServer(t, Config{})
	c, _ := serveCounted(t, s)
	if _, err := c.Write([]byte("PING\r\nSET 7 seven\r\nGET 7\r\n")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	r := bufio.NewReader(c)
	reps := readReplies(t, c, r, 3)
	if reps[0].Str != "PONG" || reps[1].Str != "OK" || string(reps[2].Bulk) != "seven" {
		t.Fatalf("replies = %+v", reps)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Error("connection still open after the client's half-close")
	}
}
