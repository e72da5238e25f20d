package oakmap_test

import (
	"bytes"
	"fmt"
	"testing"

	"oakmap"
)

// TestZCAllocs pins the zero-copy API's garbage-free contract: the
// callback read, a Get whose view the caller does not keep, and the
// zero-copy puts allocate nothing on the Go heap in steady state, on one
// shard and through the shard router.
func TestZCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
				&oakmap.Options{Shards: shards})
			defer m.Close()
			zc := m.ZC()
			key, absent, val := []byte("key-0001"), []byte("key-0002"), bytes.Repeat([]byte{'v'}, 100)
			if err := zc.Put(key, val); err != nil {
				t.Fatal(err)
			}
			n := 0
			read := func(b []byte) error { n += len(b); return nil }
			for _, c := range []struct {
				name string
				op   func()
			}{
				{"Read", func() { zc.Read(key, read) }},
				{"Read/absent", func() { zc.Read(absent, read) }},
				{"Get+Read", func() { zc.Get(key).Read(read) }},
				{"Put", func() { zc.Put(key, val) }},
				{"PutIfAbsent", func() { zc.PutIfAbsent(key, val) }},
			} {
				if a := testing.AllocsPerRun(1000, c.op); a != 0 {
					t.Errorf("%s: %v allocs/op, want 0", c.name, a)
				}
			}
			if n == 0 {
				t.Fatal("Read never ran its callback")
			}
		})
	}
}

// TestZCRead covers the callback read's three outcomes: a hit runs f on
// the value, a miss reports absent without running f, and f's error
// comes back with found set.
func TestZCRead(t *testing.T) {
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{}, &oakmap.Options{Shards: 2})
	defer m.Close()
	zc := m.ZC()
	if err := zc.Put([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	found, err := zc.Read([]byte("k"), func(b []byte) error { got = append(got[:0], b...); return nil })
	if !found || err != nil || string(got) != "value" {
		t.Fatalf("hit: found=%v err=%v got=%q", found, err, got)
	}
	ran := false
	found, err = zc.Read([]byte("missing"), func([]byte) error { ran = true; return nil })
	if found || err != nil || ran {
		t.Fatalf("miss: found=%v err=%v ran=%v", found, err, ran)
	}
	errStop := fmt.Errorf("stop")
	found, err = zc.Read([]byte("k"), func([]byte) error { return errStop })
	if !found || err != errStop {
		t.Fatalf("callback error: found=%v err=%v", found, err)
	}
	if err := zc.Remove([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if found, _ := zc.Read([]byte("k"), func([]byte) error { return nil }); found {
		t.Fatal("removed key still found")
	}
}

// TestStreamScanAllocs pins the stream scans' allocation cost: a
// descending scan holds one chunk stack iterator and reuses its stack
// across chunks, so over a range spanning many chunks it allocates no
// more than the ascending scan of the same range.
func TestStreamScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{ChunkCapacity: 64})
	defer m.Close()
	zc := m.ZC()
	val := make([]byte, 16)
	for k := uint64(0); k < 4000; k++ {
		if err := zc.Put(k*7919%4000, val); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := uint64(1000), uint64(2000)
	n := 0
	count := func(_, _ *oakmap.OakRBuffer) bool { n++; return true }
	asc := testing.AllocsPerRun(200, func() { zc.AscendStream(&lo, &hi, count) })
	desc := testing.AllocsPerRun(200, func() { zc.DescendStream(&lo, &hi, count) })
	if n != 2*201*1000 {
		t.Fatalf("scans yielded %d entries, want %d", n, 2*201*1000)
	}
	t.Logf("1000-entry stream scans: AscendStream %v allocs, DescendStream %v allocs", asc, desc)
	if desc > asc {
		t.Fatalf("DescendStream allocates %v per scan, AscendStream %v", desc, asc)
	}
}

// TestShardedPageAllocs pins the cost of one SCAN-sized page through the
// shard merge: a 256-key KeysStream over 4 shards reuses the map's merge
// state and serializes its bounds through the key pool, so it allocates
// at most 2 objects however many keys it yields.
func TestShardedPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{Shards: 4, ChunkCapacity: 64})
	defer m.Close()
	zc := m.ZC()
	val := make([]byte, 16)
	for k := uint64(0); k < 4000; k++ {
		if err := zc.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	from, to := uint64(1000), uint64(3000)
	n := 0
	page := func(*oakmap.OakRBuffer) bool { n++; return n%256 != 0 }
	a := testing.AllocsPerRun(200, func() { zc.KeysStream(&from, &to, page) })
	if n != 201*256 {
		t.Fatalf("pages yielded %d keys, want %d", n, 201*256)
	}
	t.Logf("256-key page over 4 shards: %v allocs", a)
	if a > 2 {
		t.Fatalf("a 256-key page over 4 shards makes %v allocs, want ≤ 2", a)
	}
}
