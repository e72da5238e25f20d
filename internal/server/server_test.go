package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"testing"
	"time"

	"oakmap"
	"oakmap/internal/faultpoint"
)

// newTestServer starts a server over a fresh map on a loopback listener
// and returns it with its dial address. Shutdown and map close are
// wired into cleanup; tests that call Shutdown themselves simply make
// the cleanup's call a no-op drain of zero connections.
func newTestServer(t *testing.T, shards int, cfg Config) (*Server, string) {
	t.Helper()
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{ChunkCapacity: 64, BlockSize: 1 << 20, Shards: shards})
	t.Cleanup(m.Close)

	cfg.Logger = log.New(io.Discard, "", 0) // expected panics stay quiet
	s := New(m, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// do runs one command and fails the test on transport errors; the reply
// (including -ERR replies) is returned for shape assertions.
func do(t *testing.T, cl *Client, args ...string) Reply {
	t.Helper()
	r, err := cl.DoStrings(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

func doOK(t *testing.T, cl *Client, args ...string) {
	t.Helper()
	if r := do(t, cl, args...); !r.IsOK() {
		t.Fatalf("%v: want +OK, got %s", args, r)
	}
}

func doInt(t *testing.T, cl *Client, want int64, args ...string) {
	t.Helper()
	if r := do(t, cl, args...); r.Kind != ReplyInt || r.Int != want {
		t.Fatalf("%v: want :%d, got %s", args, want, r)
	}
}

func doBulk(t *testing.T, cl *Client, want string, args ...string) {
	t.Helper()
	if r := do(t, cl, args...); r.Kind != ReplyBulk || string(r.Str) != want {
		t.Fatalf("%v: want $%q, got %s", args, want, r)
	}
}

func doNil(t *testing.T, cl *Client, args ...string) {
	t.Helper()
	if r := do(t, cl, args...); r.Kind != ReplyNil {
		t.Fatalf("%v: want nil, got %s", args, r)
	}
}

func doErr(t *testing.T, cl *Client, args ...string) {
	t.Helper()
	if r := do(t, cl, args...); r.Kind != ReplyError {
		t.Fatalf("%v: want error reply, got %s", args, r)
	}
}

func TestServerCommands(t *testing.T) {
	_, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)

	if r := do(t, cl, "PING"); r.Kind != ReplySimple || string(r.Str) != "PONG" {
		t.Fatalf("PING: %s", r)
	}
	doBulk(t, cl, "echo", "PING", "echo")

	doOK(t, cl, "SET", "a", "1")
	doOK(t, cl, "SET", "b", "2")
	doBulk(t, cl, "1", "GET", "a")
	doNil(t, cl, "GET", "missing")

	doInt(t, cl, 0, "SETNX", "a", "overwrite")
	doBulk(t, cl, "1", "GET", "a") // SETNX must not have overwritten
	doInt(t, cl, 1, "SETNX", "c", "3")

	doInt(t, cl, 2, "EXISTS", "a", "b", "missing")
	doInt(t, cl, 1, "DEL", "b", "missing")
	doInt(t, cl, 0, "EXISTS", "b")

	doOK(t, cl, "MSET", "x", "10", "y", "20")
	r := do(t, cl, "MGET", "x", "missing", "y")
	if r.Kind != ReplyArray || len(r.Elems) != 3 {
		t.Fatalf("MGET: %s", r)
	}
	if string(r.Elems[0].Str) != "10" || r.Elems[1].Kind != ReplyNil || string(r.Elems[2].Str) != "20" {
		t.Fatalf("MGET elems: %s", r)
	}

	doInt(t, cl, 4, "DBSIZE") // a, c, x, y

	if r := do(t, cl, "INFO"); r.Kind != ReplyBulk || !bytes.Contains(r.Str, []byte("keys:4")) {
		t.Fatalf("INFO: %s", r)
	}

	// Errors are per-command replies, not connection state.
	doErr(t, cl, "NOSUCH", "x")
	doErr(t, cl, "SET", "only-key")
	doErr(t, cl, "MSET", "odd", "1", "stray")
	doBulk(t, cl, "1", "GET", "a") // connection still healthy
}

func TestServerCaseInsensitive(t *testing.T) {
	_, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	doOK(t, cl, "set", "k", "v")
	doBulk(t, cl, "v", "gEt", "k")
	doInt(t, cl, 1, "Del", "k")
}

func TestServerBinaryValues(t *testing.T) {
	_, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	key := []byte{0, 1, '\r', '\n', 0xFF}
	val := append(bytes.Repeat([]byte{0xAB}, 1000), "\r\n$-1\r\n"...)
	r, err := cl.Do([]byte("SET"), key, val)
	if err != nil || !r.IsOK() {
		t.Fatalf("binary SET: %s %v", r, err)
	}
	r, err = cl.Do([]byte("GET"), key)
	if err != nil || r.Kind != ReplyBulk || !bytes.Equal(r.Str, val) {
		t.Fatalf("binary GET mismatch")
	}
}

func TestServerPipelining(t *testing.T) {
	_, addr := newTestServer(t, 2, Config{})
	cl := dialT(t, addr)

	const n = 500
	for i := 0; i < n; i++ {
		cl.SendStrings("SET", fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := cl.Recv()
		if err != nil || !r.IsOK() {
			t.Fatalf("pipelined SET %d: %s %v", i, r, err)
		}
	}
	for i := 0; i < n; i++ {
		cl.SendStrings("GET", fmt.Sprintf("k%04d", i))
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := cl.Recv()
		if err != nil || r.Kind != ReplyBulk || string(r.Str) != fmt.Sprintf("v%d", i) {
			t.Fatalf("pipelined GET %d: %s %v", i, r, err)
		}
	}
}

func TestServerScanPagination(t *testing.T) {
	// 4 shards so pagination crosses the loser-tree merge.
	_, addr := newTestServer(t, 4, Config{})
	cl := dialT(t, addr)

	const n = 300
	for i := 0; i < n; i++ {
		doOK(t, cl, "SET", fmt.Sprintf("key%05d", i), "v")
	}

	var keys []string
	cursor := "0"
	pages := 0
	for {
		r := do(t, cl, "SCAN", cursor, "COUNT", "37")
		if r.Kind != ReplyArray || len(r.Elems) != 2 {
			t.Fatalf("SCAN: %s", r)
		}
		for _, el := range r.Elems[1].Elems {
			keys = append(keys, string(el.Str))
		}
		pages++
		cursor = string(r.Elems[0].Str)
		if cursor == "0" {
			break
		}
	}
	if pages < n/37 {
		t.Fatalf("expected pagination, got %d pages", pages)
	}
	if len(keys) != n {
		t.Fatalf("scan returned %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if want := fmt.Sprintf("key%05d", i); k != want {
			t.Fatalf("key[%d] = %q, want %q (global order across shards)", i, k, want)
		}
	}

	// END bounds the range: keys < key00200.
	r := do(t, cl, "SCAN", "0", "COUNT", "4096", "END", "key00200")
	if r.Kind != ReplyArray {
		t.Fatalf("SCAN END: %s", r)
	}
	got := r.Elems[1].Elems
	if len(got) != 200 {
		t.Fatalf("bounded scan returned %d keys, want 200", len(got))
	}
	if string(got[len(got)-1].Str) != "key00199" {
		t.Fatalf("last bounded key %q", got[len(got)-1].Str)
	}

	// Invalid cursor is an error reply, not a close.
	doErr(t, cl, "SCAN", "bogus")
	doOK(t, cl, "SET", "still-alive", "v")
}

func TestServerScanEmptyMap(t *testing.T) {
	_, addr := newTestServer(t, 3, Config{})
	cl := dialT(t, addr)
	r := do(t, cl, "SCAN", "0")
	if r.Kind != ReplyArray || len(r.Elems) != 2 {
		t.Fatalf("SCAN: %s", r)
	}
	if string(r.Elems[0].Str) != "0" || len(r.Elems[1].Elems) != 0 {
		t.Fatalf("empty map scan: %s", r)
	}
}

func TestServerOverload(t *testing.T) {
	_, addr := newTestServer(t, 0, Config{MaxConns: 1})
	keep := dialT(t, addr)
	doOK(t, keep, "SET", "k", "v") // slot taken for sure

	over := dialT(t, addr)
	r, err := over.DoStrings("PING")
	if err != nil || r.Kind != ReplyError || !bytes.Contains(r.Str, []byte("max number of clients")) {
		t.Fatalf("overload: want clean -ERR, got %s %v", r, err)
	}
	// The refused connection is closed server-side.
	over.Conn().SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := over.Recv(); err == nil {
		t.Fatal("refused connection should be closed")
	}
	// The in-pool connection is unaffected; closing it frees the slot.
	doBulk(t, keep, "v", "GET", "k")
	keep.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		next, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		next.Conn().SetReadDeadline(time.Now().Add(time.Second))
		r, err := next.DoStrings("PING")
		next.Close()
		if err == nil && r.Kind == ReplySimple {
			return // slot released
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never released after client close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{ReadTimeout: 80 * time.Millisecond})
	cl := dialT(t, addr)
	doOK(t, cl, "SET", "k", "v")
	// Idle past the limit: the server closes the connection.
	cl.Conn().SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := cl.Recv(); err == nil {
		t.Fatal("idle connection should have been closed")
	}
	if got := s.metrics.timeouts.Load(); got == 0 {
		t.Fatal("idle close should be counted as a timeout")
	}
}

func TestServerQuit(t *testing.T) {
	_, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	doOK(t, cl, "QUIT")
	if _, err := cl.Recv(); err == nil {
		t.Fatal("connection should close after QUIT")
	}
}

func TestServerShutdownCommand(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	doOK(t, cl, "SHUTDOWN")
	select {
	case <-s.ShutdownRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("SHUTDOWN did not signal ShutdownRequested")
	}
}

func TestServerProtocolErrorCloses(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	// A malformed frame gets an error reply, then the connection closes.
	if _, err := cl.Conn().Write([]byte("*1\r\n:999\r\n")); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Recv()
	if err != nil || r.Kind != ReplyError {
		t.Fatalf("want protocol error reply, got %s %v", r, err)
	}
	if _, err := cl.Recv(); err == nil {
		t.Fatal("connection should close after a protocol error")
	}
	if s.metrics.protoErrors.Load() == 0 {
		t.Fatal("protocol error not counted")
	}
}

// TestServerPanicIsolation proves a panicking handler costs exactly its
// connection: the panic is recovered, counted, and the server keeps
// serving other clients from a healthy pool.
func TestServerPanicIsolation(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{MaxConns: 4})
	FpHandle.Arm(faultpoint.Hook{Decide: func(hit int64) bool {
		panic("chaos: injected handler panic")
	}})
	defer FpHandle.Disarm()

	victim := dialT(t, addr)
	victim.SendStrings("GET", "k")
	if err := victim.Flush(); err != nil {
		t.Fatal(err)
	}
	victim.Conn().SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := victim.Recv(); err == nil {
		t.Fatal("panicked handler should close its connection")
	}
	FpHandle.Disarm()

	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	healthy := dialT(t, addr)
	doOK(t, healthy, "SET", "alive", "yes")
	doBulk(t, healthy, "yes", "GET", "alive")
}

// TestServerKillClientMidPipeline is the leak-gate chaos test: clients
// are killed abruptly mid-pipeline (half-written frames, unread replies)
// while others churn keys; afterwards a drain must find zero leaked key
// bytes on every shard — no abandoned connection may pin map state.
func TestServerKillClientMidPipeline(t *testing.T) {
	s, addr := newTestServer(t, 4, Config{WriteTimeout: time.Second})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				cl, err := Dial(addr, 2*time.Second)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				for i := 0; i < 50; i++ {
					k := fmt.Sprintf("w%dk%d", w, i)
					cl.SendStrings("SET", k, "some-value")
					cl.SendStrings("GET", k)
					cl.SendStrings("DEL", k)
				}
				cl.Flush()
				// Half the rounds: also leave a torn frame on the wire,
				// then vanish without reading a single reply.
				if round%2 == 0 {
					cl.Conn().Write([]byte("*3\r\n$3\r\nSET\r\n$5\r\nhel"))
				}
				cl.Close()
			}
		}(w)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats := s.Shutdown(ctx)
	if !stats.Quiesced {
		t.Fatal("limbo did not drain after churn")
	}
	if !stats.Clean() {
		t.Fatal("drain not clean")
	}
}

// TestServerGracefulDrain: Shutdown lets in-flight pipelines finish,
// wakes parked readers, and reports the drain split.
func TestServerGracefulDrain(t *testing.T) {
	s, addr := newTestServer(t, 2, Config{})

	// Three parked clients with no in-flight work.
	parked := make([]*Client, 3)
	for i := range parked {
		parked[i] = dialT(t, addr)
		doOK(t, parked[i], "SET", fmt.Sprintf("p%d", i), "v")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats := s.Shutdown(ctx)
	if stats.ConnsForced != 0 {
		t.Fatalf("graceful drain forced %d connections", stats.ConnsForced)
	}
	if stats.ConnsDrained != len(parked) {
		t.Fatalf("drained %d connections, want %d", stats.ConnsDrained, len(parked))
	}
	if !stats.Clean() {
		t.Fatalf("drain not clean: %+v", stats)
	}
	if stats.Commands == 0 {
		t.Fatal("command total missing from drain stats")
	}
	// Parked clients see their connections closed.
	for _, cl := range parked {
		cl.Conn().SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := cl.Recv(); err == nil {
			t.Fatal("drained connection should be closed")
		}
	}
}

// TestServerDrainLeakGateSeesSnapshot: an embedder holds a snapshot of
// the map while the server overwrites the keys it sees, so the drain
// finds pre-images retained and a snapshot open that the server does not
// own. The leak gate must report the drain dirty.
func TestServerDrainLeakGateSeesSnapshot(t *testing.T) {
	s, addr := newTestServer(t, 2, Config{})
	m := s.m
	cl := dialT(t, addr)
	for i := 0; i < 8; i++ {
		doOK(t, cl, "SET", fmt.Sprintf("k%d", i), "before")
	}
	snap := m.Snapshot()
	for i := 0; i < 8; i++ {
		doOK(t, cl, "SET", fmt.Sprintf("k%d", i), "after")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats := s.Shutdown(ctx)
	if stats.Clean() {
		t.Fatalf("drain reported clean with a snapshot open and pre-images retained: %+v", stats)
	}
	if stats.RetainedBytes <= 0 || stats.RetainedSpans <= 0 || stats.OpenSnapshots != 1 {
		t.Fatalf("drain stats miss the snapshot's state: %+v", stats)
	}
	if v, ok := snap.Get([]byte("k3")); !ok || string(v) != "before" {
		t.Fatalf("snapshot read k3 = %q, %v; want before", v, ok)
	}

	// What the gate saw was the snapshot's: closing it clears all of it.
	snap.Close()
	if st := m.Stats(); st.RetainedBytes != 0 || st.RetainedSpans != 0 || st.OpenSnapshots != 0 {
		t.Fatalf("MVCC state after the snapshot closed: %+v", st)
	}
}

// TestServerDrainMidFrame: a client stuck mid-frame cannot block the
// drain — the deadline poke wakes its read, the handler exits, and the
// leak gate stays clean either way the accounting falls.
func TestServerDrainMidFrame(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	// Half-written frame: the handler is mid-ReadCommand and cannot
	// reach a flush boundary on its own.
	if _, err := cl.Conn().Write([]byte("*2\r\n$3\r\nSET\r\n$5\r\nhe")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler enter the read

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	stats := s.Shutdown(ctx)
	if stats.ConnsDrained+stats.ConnsForced != 1 {
		t.Fatalf("drain accounting: %+v", stats)
	}
	if !stats.Clean() {
		t.Fatalf("drain not clean: %+v", stats)
	}
}
