package server

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"reflect"
	"strings"
	"sync"
	"testing"

	"oakmap"
)

// newExecServer builds a Server over a fresh 4-shard map without a
// listener: these tests drive execute directly, one reply buffer each.
func newExecServer(t testing.TB) *Server {
	t.Helper()
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{Shards: 4, BlockSize: 16 << 20})
	t.Cleanup(m.Close)
	return New(m, Config{Logger: log.New(io.Discard, "", 0)})
}

func cmd(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

func mustExec(t testing.TB, s *Server, w *respWriter, args [][]byte) {
	t.Helper()
	if err := s.execute(w, args); err != nil {
		t.Fatalf("%s: %v", args[0], err)
	}
}

// TestServerCommandAllocs is the zero-garbage gate for the point
// commands: in steady state a GET (hit or miss), an 8-key MGET, a SET
// and a SETNX allocate nothing on the Go heap between the parsed frame
// and the reply buffer.
func TestServerCommandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newExecServer(t)
	w := newRespWriter(io.Discard)
	val := strings.Repeat("v", 128)
	mget := []string{"MGET"}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key:%04d", i)
		mustExec(t, s, w, cmd("SET", k, val))
		if i%8 == 0 {
			mget = append(mget, k)
		}
	}
	for _, c := range []struct {
		name string
		args [][]byte
	}{
		{"GET hit", cmd("GET", "key:0007")},
		{"GET miss", cmd("GET", "nokey")},
		{"MGET x8", cmd(mget...)},
		{"SET", cmd("SET", "key:0011", val)},
		{"SETNX", cmd("SETNX", "key:0012", val)},
	} {
		if a := testing.AllocsPerRun(1000, func() { s.execute(w, c.args) }); a != 0 {
			t.Errorf("%s: %v allocs/command, want 0", c.name, a)
		}
	}
}

// TestServerScanPageAllocs: a SCAN page's allocations are per page, not
// per row — the rows are framed into the writer's reused page buffer.
func TestServerScanPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newExecServer(t)
	w := newRespWriter(io.Discard)
	for i := 0; i < 1024; i++ {
		mustExec(t, s, w, cmd("SET", fmt.Sprintf("key:%04d", i), "v"))
	}
	small := testing.AllocsPerRun(200, func() { s.execute(w, cmd("SCAN", "0", "COUNT", "16")) })
	large := testing.AllocsPerRun(200, func() { s.execute(w, cmd("SCAN", "0", "COUNT", "256")) })
	if small != large {
		t.Errorf("SCAN page allocs: COUNT 16 = %v, COUNT 256 = %v; want equal", small, large)
	}
}

// largestRetained reports the capacity of the largest byte buffer v's
// struct keeps between commands; bufio's own fixed buffers sit behind a
// pointer and are not counted.
func largestRetained(v any) int {
	rv := reflect.ValueOf(v).Elem()
	most := 0
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8 && f.Cap() > most {
			most = f.Cap()
		}
	}
	return most
}

// TestServerBufferRetention: one outsized command must not pin its
// buffers for the connection's lifetime. After a 4 MiB GET and a
// 4,096-key SCAN over 1 KiB keys the writer keeps no buffer over
// 64 KiB, and after a 4 MiB SET frame the reader drops its argument
// buffer at the next frame.
func TestServerBufferRetention(t *testing.T) {
	s := newExecServer(t)
	w := newRespWriter(io.Discard)
	if err := s.zc.Put([]byte("big"), make([]byte, 4<<20)); err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 1<<10)
	for i := 0; i < 4096; i++ {
		copy(key, fmt.Sprintf("%06d", i))
		if err := s.zc.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, w, cmd("GET", "big"))
	mustExec(t, s, w, cmd("SCAN", "0", "COUNT", "4096"))
	if n := largestRetained(w); n > 64<<10 {
		t.Errorf("writer retains a %d B buffer after the command, want <= 64 KiB", n)
	}

	var in bytes.Buffer
	cw := newRespWriter(&in)
	for _, frame := range [][][]byte{{[]byte("SET"), []byte("big"), make([]byte, 4<<20)}, cmd("PING")} {
		cw.writeArrayHeader(len(frame))
		for _, a := range frame {
			cw.writeBulk(a)
		}
	}
	cw.Flush()
	r := newRespReader(&in, 0, 0)
	for i := 0; i < 2; i++ {
		if _, err := r.ReadCommand(); err != nil {
			t.Fatal(err)
		}
	}
	if n := largestRetained(r); n > 64<<10 {
		t.Errorf("reader retains a %d B buffer past the frame that grew it, want <= 64 KiB", n)
	}
}

// TestServerLargeValueRoundTrip sends a value larger than the reply
// buffer's free space, so GET and MGET take the copy-out branch; both
// must return it byte-exact, next to small values served in place.
func TestServerLargeValueRoundTrip(t *testing.T) {
	_, addr := newTestServer(t, 4, Config{})
	cl := dialT(t, addr)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if r, err := cl.Do([]byte("SET"), []byte("big"), big); err != nil || !r.IsOK() {
		t.Fatalf("SET big: %v %v", r, err)
	}
	doOK(t, cl, "SET", "small", "s")
	r, err := cl.Do([]byte("GET"), []byte("big"))
	if err != nil || r.Kind != ReplyBulk || !bytes.Equal(r.Str, big) {
		t.Fatalf("GET big: kind %c, %d bytes, err %v", r.Kind, len(r.Str), err)
	}
	r, err = cl.DoStrings("MGET", "small", "big", "absent", "big", "small")
	if err != nil || r.Kind != ReplyArray || len(r.Elems) != 5 {
		t.Fatalf("MGET: %v %v", r.Kind, err)
	}
	want := [][]byte{[]byte("s"), big, nil, big, []byte("s")}
	for i, e := range r.Elems {
		if want[i] == nil {
			if e.Kind != ReplyNil {
				t.Errorf("MGET[%d]: kind %c, want nil", i, e.Kind)
			}
			continue
		}
		if e.Kind != ReplyBulk || !bytes.Equal(e.Str, want[i]) {
			t.Errorf("MGET[%d]: kind %c, %d bytes, want %d", i, e.Kind, len(e.Str), len(want[i]))
		}
	}
}

// raceValue is the value the race test's writers store for generation
// g: g's byte repeated to a g-dependent length, some longer than the
// reply buffer, so a torn or mixed read is detectable from the bytes.
func raceValue(g byte) []byte {
	n := 1 + int(g)*331%(96<<10)
	return bytes.Repeat([]byte{g}, n)
}

func checkRaceValue(t *testing.T, r Reply) {
	t.Helper()
	switch r.Kind {
	case ReplyNil:
	case ReplyBulk:
		if len(r.Str) == 0 {
			t.Errorf("empty value")
			return
		}
		if want := raceValue(r.Str[0]); !bytes.Equal(r.Str, want) {
			t.Errorf("torn value: %d bytes starting %q, want %d bytes", len(r.Str), r.Str[0], len(want))
		}
	default:
		t.Errorf("unexpected reply kind %c", r.Kind)
	}
}

// TestServerGetRacesWriters: GETs and MGETs racing DEL and SET on the
// same keys read either nil or one whole value, never torn bytes, on
// both the in-place and the copy-out branch.
func TestServerGetRacesWriters(t *testing.T) {
	_, addr := newTestServer(t, 4, Config{})
	keys := []string{"a", "b", "c", "d"}
	const rounds = 200
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		cl := dialT(t, addr)
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := []byte(keys[(i+wi)%len(keys)])
				if i%5 == 4 {
					if _, err := cl.Do([]byte("DEL"), k); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if _, err := cl.Do([]byte("SET"), k, raceValue(byte(i*7+wi))); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	for ri := 0; ri < 2; ri++ {
		cl := dialT(t, addr)
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// A pipelined GET ahead of the MGET shrinks the free
				// reply space, so both branches of the GET path run.
				cl.SendStrings("GET", keys[(i+ri)%len(keys)])
				cl.SendStrings(append([]string{"MGET"}, keys...)...)
				if err := cl.Flush(); err != nil {
					t.Error(err)
					return
				}
				r, err := cl.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				checkRaceValue(t, r)
				r, err = cl.Recv()
				if err != nil || r.Kind != ReplyArray || len(r.Elems) != len(keys) {
					t.Errorf("MGET: kind %c err %v", r.Kind, err)
					return
				}
				for _, e := range r.Elems {
					checkRaceValue(t, e)
				}
			}
		}(ri)
	}
	wg.Wait()
}
