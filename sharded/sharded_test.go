package sharded

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"oakmap/internal/arena"
	"oakmap/internal/core"
)

func testPool(t testing.TB) *arena.Pool {
	t.Helper()
	return arena.NewPool(1<<20, 0)
}

// newTestSharded builds an n-shard map with tiny chunks (so tests
// exercise rebalances) over a private pool.
func newTestSharded(t testing.TB, n, chunkCap int) *Map {
	t.Helper()
	m := New(n, &core.Options{ChunkCapacity: chunkCap, Pool: testPool(t)})
	t.Cleanup(m.Close)
	return m
}

func ik(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func iv(i int) []byte {
	return []byte(fmt.Sprintf("value-%08d", i))
}

func TestShardedPointOps(t *testing.T) {
	m := newTestSharded(t, 4, 16)
	const n = 300
	for i := 0; i < n; i++ {
		if err := m.Put(ik(i), iv(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d; want %d", got, n)
	}
	// With 300 FNV-routed keys every one of 4 shards must own some.
	for i, s := range m.Shards() {
		if s.Len() == 0 {
			t.Fatalf("shard %d owns no keys: router is not spreading", i)
		}
	}
	for i := 0; i < n; i++ {
		h, ok := m.Get(ik(i))
		if !ok {
			t.Fatalf("Get(%d) missing", i)
		}
		b, err := m.ShardFor(ik(i)).CopyValue(h, nil)
		if err != nil || !bytes.Equal(b, iv(i)) {
			t.Fatalf("Get(%d) = %q, %v; want %q", i, b, err, iv(i))
		}
	}
	// PutIfAbsent respects presence; ComputeIfPresent routes to the owner.
	if ok, _ := m.PutIfAbsent(ik(5), []byte("x")); ok {
		t.Fatal("PutIfAbsent overwrote a present key")
	}
	if ok, _ := m.ComputeIfPresent(ik(5), func(w *core.WBuffer) error {
		return w.Set([]byte("computed"))
	}); !ok {
		t.Fatal("ComputeIfPresent missed a present key")
	}
	h, _ := m.Get(ik(5))
	if b, _ := m.ShardFor(ik(5)).CopyValue(h, nil); string(b) != "computed" {
		t.Fatalf("after compute: %q", b)
	}
	for i := 0; i < n; i++ {
		if ok, err := m.Remove(ik(i)); !ok || err != nil {
			t.Fatalf("Remove(%d) = %v, %v", i, ok, err)
		}
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("Len after removes = %d; want 0", got)
	}
}

func TestShardedRouterStability(t *testing.T) {
	m := newTestSharded(t, 7, 16)
	for i := 0; i < 1000; i++ {
		k := ik(i)
		idx := m.ShardIndex(k)
		if idx < 0 || idx >= m.NumShards() {
			t.Fatalf("ShardIndex(%d) = %d out of range", i, idx)
		}
		for rep := 0; rep < 3; rep++ {
			if got := m.ShardIndex(k); got != idx {
				t.Fatalf("ShardIndex(%d) flapped: %d then %d", i, idx, got)
			}
		}
		if m.ShardFor(k) != m.Shards()[idx] {
			t.Fatalf("ShardFor(%d) disagrees with ShardIndex", i)
		}
	}
}

// TestShardedNavigation checks the cross-shard reduce queries against a
// sorted reference over a key set that is guaranteed to span shards.
func TestShardedNavigation(t *testing.T) {
	m := newTestSharded(t, 4, 16)
	var keys [][]byte
	for i := 0; i < 200; i += 3 {
		k := ik(i)
		keys = append(keys, k)
		if err := m.Put(k, iv(i)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })

	wantKey := func(name string, k []byte, ok bool, want []byte) {
		t.Helper()
		if want == nil {
			if ok {
				t.Fatalf("%s: got %x; want none", name, k)
			}
			return
		}
		if !ok {
			t.Fatalf("%s: got none; want %x", name, want)
		}
		if !bytes.Equal(k, want) {
			t.Fatalf("%s: got %x; want %x", name, k, want)
		}
		// The key must be mapped on the shard it routes to.
		s := m.ShardFor(k)
		h, ok := s.Get(k)
		if !ok {
			t.Fatalf("%s: key not found on its routed shard", name)
		}
		if b, err := s.CopyValue(h, nil); err != nil || len(b) == 0 {
			t.Fatalf("%s: value unreadable: %v", name, err)
		}
	}

	e, ok := m.First()
	wantKey("First", e, ok, keys[0])
	e, ok = m.Last()
	wantKey("Last", e, ok, keys[len(keys)-1])

	// Probe around present keys and gaps (keys are multiples of 3).
	e, ok = m.Floor(ik(7))
	wantKey("Floor(7)", e, ok, ik(6))
	e, ok = m.Floor(ik(6))
	wantKey("Floor(6)=self", e, ok, ik(6))
	e, ok = m.Ceiling(ik(7))
	wantKey("Ceiling(7)", e, ok, ik(9))
	e, ok = m.Ceiling(ik(9))
	wantKey("Ceiling(9)=self", e, ok, ik(9))
	e, ok = m.Lower(ik(9))
	wantKey("Lower(9)", e, ok, ik(6))
	e, ok = m.Higher(ik(9))
	wantKey("Higher(9)", e, ok, ik(12))
	e, ok = m.Lower(ik(0))
	wantKey("Lower(min)", e, ok, nil)
	e, ok = m.Higher(ik(198))
	wantKey("Higher(max)", e, ok, nil)
}

func TestShardedQuiesceDrainsAllShards(t *testing.T) {
	m := newTestSharded(t, 3, 16)
	for i := 0; i < 200; i++ {
		m.Put(ik(i), iv(i))
	}
	for i := 0; i < 200; i++ {
		m.Remove(ik(i))
	}
	if !m.Quiesce() {
		t.Fatal("Quiesce did not drain all shards")
	}
	for i, s := range m.Shards() {
		st := s.ReclaimStats()
		if st.LimboBytes != 0 {
			t.Fatalf("shard %d: %d limbo bytes after Quiesce", i, st.LimboBytes)
		}
	}
}

// TestShardedNavKeyOwned: a navigation answer is an owned copy of the
// key, so its bytes stay the key's own after the entry is removed right
// after the query and its key space is recycled by churn that rebalances
// every shard.
func TestShardedNavKeyOwned(t *testing.T) {
	m := newTestSharded(t, 4, 16)
	const n = 200
	for i := 0; i < n; i++ {
		if err := m.Put(ik(i), iv(i)); err != nil {
			t.Fatal(err)
		}
	}
	var held [][]byte
	for i := 0; i < n; i++ {
		k, ok := m.First()
		if !ok || !bytes.Equal(k, ik(i)) {
			t.Fatalf("First = %x, %v; want %x", k, ok, ik(i))
		}
		if ok, err := m.Remove(k); !ok || err != nil {
			t.Fatalf("Remove(%x) = %v, %v", k, ok, err)
		}
		held = append(held, k)
		// Churn other keys so rebalances retire the removed key's space
		// and later writes reuse it.
		for j := 0; j < 8; j++ {
			c := ik(1_000_000 + i*8 + j)
			if err := m.Put(c, iv(j)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Remove(c); err != nil {
				t.Fatal(err)
			}
		}
		m.Quiesce()
	}
	for i, k := range held {
		if !bytes.Equal(k, ik(i)) {
			t.Fatalf("held key %d reads %x; want %x", i, k, ik(i))
		}
	}
}
