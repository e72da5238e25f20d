package oakmap

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

func newUintMap(t testing.TB) *Map[uint64, string] {
	t.Helper()
	m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
		&Options{ChunkCapacity: 64, BlockSize: 1 << 20})
	t.Cleanup(m.Close)
	return m
}

func TestLegacyRoundTrip(t *testing.T) {
	m := newUintMap(t)
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map Get returned a value")
	}
	if _, _, err := m.Put(1, "one"); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(1); !ok || v != "one" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	prev, replaced, err := m.Put(1, "uno")
	if err != nil || !replaced || prev != "one" {
		t.Fatalf("Put returned %q, %v, %v", prev, replaced, err)
	}
	prev, removed, err := m.Remove(1)
	if err != nil || !removed || prev != "uno" {
		t.Fatalf("Remove returned %q, %v, %v", prev, removed, err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestLegacyPutIfAbsent(t *testing.T) {
	m := newUintMap(t)
	if _, inserted, _ := m.PutIfAbsent(5, "a"); !inserted {
		t.Fatal("first PutIfAbsent should insert")
	}
	existing, inserted, _ := m.PutIfAbsent(5, "b")
	if inserted || existing != "a" {
		t.Fatalf("second PutIfAbsent = %q, %v", existing, inserted)
	}
}

func TestLegacyComputeAndMerge(t *testing.T) {
	m := newUintMap(t)
	if ok, _ := m.ComputeIfPresent(9, func(s string) string { return s + "!" }); ok {
		t.Fatal("ComputeIfPresent on absent key")
	}
	m.Put(9, "hi")
	if ok, _ := m.ComputeIfPresent(9, func(s string) string { return s + "!" }); !ok {
		t.Fatal("ComputeIfPresent failed")
	}
	if v, _ := m.Get(9); v != "hi!" {
		t.Fatalf("value = %q", v)
	}
	m.Merge(10, "init", func(s string) string { return s + "+" })
	m.Merge(10, "init", func(s string) string { return s + "+" })
	if v, _ := m.Get(10); v != "init+" {
		t.Fatalf("merged value = %q", v)
	}
}

func TestZCGetView(t *testing.T) {
	m := newUintMap(t)
	zc := m.ZC()
	if buf := zc.Get(1); buf != nil {
		t.Fatal("ZC Get on empty map")
	}
	zc.Put(1, "hello")
	buf := zc.Get(1)
	if buf == nil {
		t.Fatal("ZC Get returned nil")
	}
	b, err := buf.Bytes()
	if err != nil || string(b) != "hello" {
		t.Fatalf("buffer = %q, %v", b, err)
	}
	// The view reads through to in-place updates.
	zc.ComputeIfPresent(1, func(w OakWBuffer) error {
		w.Bytes()[0] = 'H'
		return nil
	})
	b, _ = buf.Bytes()
	if string(b) != "Hello" {
		t.Fatalf("view after compute = %q", b)
	}
	// After removal the view fails with ErrConcurrentModification.
	zc.Remove(1)
	if _, err := buf.Bytes(); err != ErrConcurrentModification {
		t.Fatalf("read after remove: %v", err)
	}
}

func TestZCPutIfAbsentComputeIfPresent(t *testing.T) {
	m := New[uint64, uint64](Uint64Serializer{}, Uint64Serializer{},
		&Options{ChunkCapacity: 64, BlockSize: 1 << 20})
	defer m.Close()
	zc := m.ZC()
	for i := 0; i < 5; i++ {
		err := zc.PutIfAbsentComputeIfPresent(7, 1, func(w OakWBuffer) error {
			w.PutUint64At(0, w.Uint64At(0)+1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := m.Get(7); v != 5 {
		t.Fatalf("counter = %d; want 5", v)
	}
}

func TestZCScans(t *testing.T) {
	m := newUintMap(t)
	zc := m.ZC()
	const n = 500
	for _, i := range rand.Perm(n) {
		zc.Put(uint64(i), fmt.Sprintf("v%04d", i))
	}
	var keys []uint64
	zc.Ascend(nil, nil, func(k, v *OakRBuffer) bool {
		kv, err := k.Uint64At(0)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, kv)
		return true
	})
	if len(keys) != n {
		t.Fatalf("ascend yielded %d", len(keys))
	}
	for i, k := range keys {
		if k != uint64(i) {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
	// Stream descending matches reversed ascending.
	var dkeys []uint64
	zc.DescendStream(nil, nil, func(k, v *OakRBuffer) bool {
		kv, _ := k.Uint64At(0)
		dkeys = append(dkeys, kv)
		return true
	})
	if len(dkeys) != n {
		t.Fatalf("descend yielded %d", len(dkeys))
	}
	for i, k := range dkeys {
		if k != uint64(n-1-i) {
			t.Fatalf("dkeys[%d] = %d", i, k)
		}
	}
}

func TestSubMap(t *testing.T) {
	m := newUintMap(t)
	for i := 0; i < 100; i++ {
		m.ZC().Put(uint64(i), "x")
	}
	lo, hi := uint64(10), uint64(20)
	sm := m.SubMap(&lo, &hi)
	if sm.Len() != 10 {
		t.Fatalf("SubMap len = %d", sm.Len())
	}
	count := 0
	sm.ZC().DescendStream(func(k, v *OakRBuffer) bool { count++; return true })
	if count != 10 {
		t.Fatalf("submap descend count = %d", count)
	}
	if m.HeadMap(10).Len() != 10 || m.TailMap(90).Len() != 10 {
		t.Fatal("HeadMap/TailMap lengths wrong")
	}
}

func TestNavigationKeys(t *testing.T) {
	m := newUintMap(t)
	for i := 0; i < 100; i += 10 {
		m.ZC().Put(uint64(i), "x")
	}
	check := func(name string, got uint64, ok bool, want uint64, wantOK bool) {
		t.Helper()
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("%s = %d, %v; want %d, %v", name, got, ok, want, wantOK)
		}
	}
	k, ok := m.FirstKey()
	check("FirstKey", k, ok, 0, true)
	k, ok = m.LastKey()
	check("LastKey", k, ok, 90, true)
	k, ok = m.FloorKey(35)
	check("FloorKey(35)", k, ok, 30, true)
	k, ok = m.CeilingKey(35)
	check("CeilingKey(35)", k, ok, 40, true)
	k, ok = m.LowerKey(30)
	check("LowerKey(30)", k, ok, 20, true)
	k, ok = m.HigherKey(30)
	check("HigherKey(30)", k, ok, 40, true)
	_, ok = m.LowerKey(0)
	check("LowerKey(0)", 0, ok, 0, false)
}

func TestStringKeys(t *testing.T) {
	m := New[string, []byte](StringSerializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	defer m.Close()
	words := []string{"pear", "apple", "fig", "banana", "cherry", "date", "elderberry"}
	for _, w := range words {
		m.ZC().Put(w, []byte(w))
	}
	var got []string
	m.Range(nil, nil, func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []string{"apple", "banana", "cherry", "date", "elderberry", "fig", "pear"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v; want %v", got, want)
		}
	}
}

func TestInt64OrderPreserved(t *testing.T) {
	m := New[int64, string](Int64Serializer{}, StringSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	defer m.Close()
	vals := []int64{-100, -1, 0, 1, 100, -50, 50}
	for _, v := range vals {
		m.ZC().Put(v, "x")
	}
	var got []int64
	m.Range(nil, nil, func(k int64, _ string) bool {
		got = append(got, k)
		return true
	})
	want := []int64{-100, -50, -1, 0, 1, 50, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v; want %v", got, want)
		}
	}
}

func TestVariableSizeValues(t *testing.T) {
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	defer m.Close()
	rng := rand.New(rand.NewPCG(1, 2))
	sizes := make(map[uint64]int)
	for i := 0; i < 500; i++ {
		k := uint64(i)
		n := 1 + int(rng.Uint64()%4000)
		v := make([]byte, n)
		for j := range v {
			v[j] = byte(k)
		}
		sizes[k] = n
		if err := m.ZC().Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k, n := range sizes {
		v, ok := m.Get(k)
		if !ok || len(v) != n {
			t.Fatalf("key %d: len=%d ok=%v; want %d", k, len(v), ok, n)
		}
		if v[0] != byte(k) || v[n-1] != byte(k) {
			t.Fatalf("key %d: content corrupted", k)
		}
	}
}

func TestConcurrentLegacyAndZC(t *testing.T) {
	m := New[uint64, uint64](Uint64Serializer{}, Uint64Serializer{},
		&Options{ChunkCapacity: 64, BlockSize: 1 << 20})
	defer m.Close()
	const keys = 256
	const perG = 3000
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			zc := m.ZC()
			for i := 0; i < perG; i++ {
				k := rng.Uint64() % keys
				switch rng.Uint64() % 5 {
				case 0:
					m.Put(k, k*2)
				case 1:
					zc.PutIfAbsentComputeIfPresent(k, 1, func(w OakWBuffer) error {
						w.PutUint64At(0, w.Uint64At(0)+1)
						return nil
					})
				case 2:
					zc.Remove(k)
				case 3:
					m.Get(k)
				default:
					cnt := 0
					zc.AscendStream(nil, nil, func(k, v *OakRBuffer) bool {
						cnt++
						return cnt < 64
					})
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-churn sanity: every scanned key is readable and sorted.
	var prev uint64
	first := true
	m.Range(nil, nil, func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("order violation %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
}

func TestStatsAndFootprint(t *testing.T) {
	m := newUintMap(t)
	for i := 0; i < 2000; i++ {
		m.ZC().Put(uint64(i), fmt.Sprintf("value-%d", i))
	}
	st := m.Stats()
	if st.Len != 2000 || st.Chunks < 2 || st.Rebalances == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Footprint <= 0 || st.LiveBytes <= 0 || st.Footprint < st.LiveBytes {
		t.Fatalf("footprint accounting broken: %+v", st)
	}
	// The chunks' heap cost is 24 B per entry slot and 8 B per sorted
	// entry, plus at most 16 B of lcp and minKey copies for 8-byte keys;
	// the chunk index adds a prefix word and a pointer for every chunk but
	// the head. Each word array (one per chunk, one in the index) carries
	// a line summary of one word per 8, rounded up: at least n/8 words
	// in all, and at most one more per array. The lower bound is also the
	// check that a map built through the facade with no Comparator gets
	// the prefix arrays and the index words at all: both recognise
	// bytes.Compare by function identity, so wrapping the comparator
	// anywhere on the way down would lose them silently.
	sorted := m.s.Shards()[0].Occupancy().Sorted
	arrays := int64(st.Chunks*64*24 + sorted*8 + (st.Chunks-1)*16)
	summaries := int64(sorted/8+(st.Chunks-1)/8) * 8
	slack := int64(st.Chunks*16 + (st.Chunks+1)*8)
	if sorted == 0 || st.MetaBytes < arrays+summaries || st.MetaBytes > arrays+summaries+slack {
		t.Fatalf("MetaBytes = %d with %d sorted entries; want %d plus at most %d", st.MetaBytes, sorted, arrays+summaries, slack)
	}
}

func TestEmptyKeysAndValues(t *testing.T) {
	m := New[string, []byte](StringSerializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	defer m.Close()
	zc := m.ZC()
	// Empty value.
	if err := zc.Put("k", nil); err != nil {
		t.Fatalf("put empty value: %v", err)
	}
	v, ok := m.Get("k")
	if !ok || len(v) != 0 {
		t.Fatalf("empty value round trip: %v %v", v, ok)
	}
	// Empty key (sorts before everything).
	if err := zc.Put("", []byte("root")); err != nil {
		t.Fatalf("put empty key: %v", err)
	}
	if k, ok := m.FirstKey(); !ok || k != "" {
		t.Fatalf("FirstKey = %q %v", k, ok)
	}
	// Grow an empty value in place.
	okc, err := zc.ComputeIfPresent("k", func(w OakWBuffer) error {
		return w.Set([]byte("grown"))
	})
	if err != nil || !okc {
		t.Fatalf("compute on empty value: %v %v", okc, err)
	}
	if v, _ := m.Get("k"); string(v) != "grown" {
		t.Fatalf("value = %q", v)
	}
	// Shrink back to empty.
	zc.ComputeIfPresent("k", func(w OakWBuffer) error { return w.Resize(0) })
	if v, _ := m.Get("k"); len(v) != 0 {
		t.Fatalf("value after shrink = %q", v)
	}
	if ok := func() bool { _, ok := m.Get(""); return ok }(); !ok {
		t.Fatal("empty key lost")
	}
	if err := zc.Remove(""); err != nil {
		t.Fatal(err)
	}
}

func TestContainsKey(t *testing.T) {
	m := newUintMap(t)
	if m.ContainsKey(1) {
		t.Fatal("empty map contains key")
	}
	m.ZC().Put(1, "x")
	if !m.ContainsKey(1) {
		t.Fatal("ContainsKey after put")
	}
	m.ZC().Remove(1)
	if m.ContainsKey(1) {
		t.Fatal("ContainsKey after remove")
	}
}

func TestPollFirstLast(t *testing.T) {
	m := newUintMap(t)
	if _, _, ok, _ := m.PollFirst(); ok {
		t.Fatal("PollFirst on empty map")
	}
	for i := 0; i < 10; i++ {
		m.ZC().Put(uint64(i), fmt.Sprintf("v%d", i))
	}
	k, v, ok, err := m.PollFirst()
	if err != nil || !ok || k != 0 || v != "v0" {
		t.Fatalf("PollFirst = %d %q %v %v", k, v, ok, err)
	}
	k, v, ok, err = m.PollLast()
	if err != nil || !ok || k != 9 || v != "v9" {
		t.Fatalf("PollLast = %d %q %v %v", k, v, ok, err)
	}
	if m.Len() != 8 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestConcurrentPollersDrainDistinct: concurrent PollFirst calls form a
// work queue — every entry is handed to exactly one poller.
func TestConcurrentPollersDrainDistinct(t *testing.T) {
	m := newUintMap(t)
	const n = 2000
	for i := 0; i < n; i++ {
		m.ZC().Put(uint64(i), "job")
	}
	var mu sync.Mutex
	seen := map[uint64]int{}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, _, ok, err := m.PollFirst()
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				seen[k]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("drained %d distinct; want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d polled %d times", k, c)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after drain", m.Len())
	}
}

func TestFacadeClosedErrors(t *testing.T) {
	m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	m.ZC().Put(1, "x")
	m.Close()
	if err := m.ZC().Put(2, "y"); err == nil {
		t.Fatal("ZC Put after close should error")
	}
	if _, _, err := m.Put(3, "z"); err == nil {
		t.Fatal("legacy Put after close should error")
	}
	if err := m.ZC().Remove(1); err == nil {
		t.Fatal("Remove after close should error")
	}
	m.Close() // idempotent
}
