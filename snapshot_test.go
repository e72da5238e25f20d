package oakmap

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"oakmap/internal/core"
)

func snapTestMap(t *testing.T, shards int) *Map[uint64, string] {
	t.Helper()
	m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
		&Options{ChunkCapacity: 64, Shards: shards})
	t.Cleanup(m.Close)
	return m
}

// runPlainAndSharded exercises a facade behavior against both backends.
// writers is a group of background writer goroutines. Its cleanup is
// registered when the group is made — after the map's, so it runs first:
// a test that fails while writers run stops and waits for them before
// the map closes, and the failure message is not buried under a panic
// from a writer using a closed map.
type writers struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func newWriters(t *testing.T) *writers {
	w := &writers{stop: make(chan struct{})}
	t.Cleanup(w.halt)
	return w
}

// halt stops the writers and waits for them; it may be called early.
func (w *writers) halt() {
	w.once.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// run calls step(0), step(1), … on a new goroutine until halt, or until
// a step fails; a failure other than the map having closed is reported.
func (w *writers) run(t *testing.T, step func(i int) error) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for i := 0; ; i++ {
			select {
			case <-w.stop:
				return
			default:
			}
			if err := step(i); err != nil {
				if !errors.Is(err, core.ErrClosed) {
					t.Errorf("background writer: %v", err)
				}
				return
			}
		}
	}()
}

func runPlainAndSharded(t *testing.T, f func(t *testing.T, m *Map[uint64, string])) {
	t.Run("plain", func(t *testing.T) { f(t, snapTestMap(t, 0)) })
	t.Run("sharded", func(t *testing.T) { f(t, snapTestMap(t, 4)) })
}

func TestSnapshotFacadeFrozenView(t *testing.T) {
	runPlainAndSharded(t, func(t *testing.T, m *Map[uint64, string]) {
		const n = 150
		want := make(map[uint64]string, n)
		for i := uint64(0); i < n; i++ {
			v := fmt.Sprintf("v%d", i)
			if _, _, err := m.Put(i, v); err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		sn := m.Snapshot()
		defer sn.Close()

		// Mutate after the snapshot: overwrites, deletes, inserts.
		for i := uint64(0); i < n; i += 2 {
			if _, _, err := m.Put(i, "mutated"); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(1); i < n; i += 4 {
			if _, _, err := m.Remove(i); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := m.Put(n+5, "new"); err != nil {
			t.Fatal(err)
		}

		for i := uint64(0); i < n; i++ {
			v, ok := sn.Get(i)
			if !ok || v != want[i] {
				t.Fatalf("snap Get(%d) = %q, %v; want %q", i, v, ok, want[i])
			}
		}
		if _, ok := sn.Get(n + 5); ok {
			t.Fatal("snapshot sees a post-snapshot insert")
		}

		// Ascend covers exactly the frozen content, in order.
		got := make(map[uint64]string, n)
		var prev uint64
		first := true
		sn.Ascend(nil, nil, func(k uint64, v string) bool {
			if !first && k <= prev {
				t.Fatalf("ascend out of order: %d after %d", k, prev)
			}
			first, prev = false, k
			got[k] = v
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("ascend saw %d entries, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("ascend key %d = %q, want %q", k, got[k], v)
			}
		}

		// Iterator agrees with Descend ordering.
		it := sn.Iterator(nil, nil, true)
		count := 0
		last := uint64(0)
		for {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			if count > 0 && k >= last {
				t.Fatalf("descending iterator out of order: %d after %d", k, last)
			}
			last = k
			if want[k] != v {
				t.Fatalf("iterator key %d = %q, want %q", k, v, want[k])
			}
			count++
		}
		if count != len(want) {
			t.Fatalf("iterator saw %d entries, want %d", count, len(want))
		}

		// The live map reflects the churn, not the frozen view.
		if v, ok := m.Get(0); !ok || v != "mutated" {
			t.Fatalf("live Get(0) = %q, %v", v, ok)
		}
	})
}

func TestSnapshotFacadeRetainedDrains(t *testing.T) {
	runPlainAndSharded(t, func(t *testing.T, m *Map[uint64, string]) {
		for i := uint64(0); i < 100; i++ {
			if _, _, err := m.Put(i, "a"); err != nil {
				t.Fatal(err)
			}
		}
		sn := m.Snapshot()
		for i := uint64(0); i < 100; i++ {
			if _, _, err := m.Put(i, "bbbb"); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.Stats(); st.OpenSnapshots != 1 || st.RetainedBytes == 0 {
			t.Fatalf("with open snapshot: %+v", st)
		}
		sn.Close()
		sn.Close() // idempotent
		if st := m.Stats(); st.OpenSnapshots != 0 || st.RetainedBytes != 0 || st.RetainedSpans != 0 {
			t.Fatalf("after close: OpenSnapshots=%d RetainedBytes=%d RetainedSpans=%d",
				st.OpenSnapshots, st.RetainedBytes, st.RetainedSpans)
		}
	})
}

func TestApplyBatchFacadeAtomic(t *testing.T) {
	runPlainAndSharded(t, func(t *testing.T, m *Map[uint64, string]) {
		keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		ops := make([]Op[uint64, string], len(keys))
		for i, k := range keys {
			ops[i] = Op[uint64, string]{Key: k, Value: "gen-0"}
		}
		if err := m.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}

		bg := newWriters(t)
		bg.run(t, func(gen int) error {
			ops := make([]Op[uint64, string], len(keys))
			for i, k := range keys {
				ops[i] = Op[uint64, string]{Key: k, Value: fmt.Sprintf("gen-%d", gen+1)}
			}
			return m.ApplyBatch(ops)
		})
		for round := 0; round < 80; round++ {
			sn := m.Snapshot()
			var ref string
			for i, k := range keys {
				v, ok := sn.Get(k)
				if !ok {
					t.Fatalf("round %d: key %d missing", round, k)
				}
				if i == 0 {
					ref = v
				} else if v != ref {
					t.Fatalf("round %d: torn batch: %q vs %q", round, v, ref)
				}
			}
			sn.Close()
		}
		bg.halt()

		// Batch with deletes and last-wins duplicates.
		if err := m.ApplyBatch([]Op[uint64, string]{
			{Key: 1, Delete: true},
			{Key: 2, Value: "first"},
			{Key: 2, Value: "second"},
			{Key: 99, Delete: true}, // absent: no-op
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Get(1); ok {
			t.Fatal("key 1 survived batch delete")
		}
		if v, ok := m.Get(2); !ok || v != "second" {
			t.Fatalf("dup key: got %q, %v; want last-wins", v, ok)
		}
	})
}

func TestSnapshotFacadeRaw(t *testing.T) {
	m := snapTestMap(t, 0)
	for i := uint64(0); i < 20; i++ {
		if _, _, err := m.Put(i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sn := m.Snapshot()
	defer sn.Close()
	var ser Uint64Serializer
	kb := make([]byte, 8)
	ser.Serialize(7, kb)
	if v, ok := sn.GetRaw(kb, nil); !ok || string(v) != "v7" {
		t.Fatalf("GetRaw = %q, %v", v, ok)
	}
	n := 0
	sn.AscendRaw(nil, nil, func(key, val []byte) bool {
		n++
		return true
	})
	if n != 20 {
		t.Fatalf("AscendRaw saw %d entries, want 20", n)
	}
}

// TestSnapshotFromCallbacks takes a snapshot from inside every callback
// the facade runs: each push scan's, one Iterator step, and the value
// reads. Snapshot waits only for undecided batches, so none of them may
// block it, not even a one-shard push scan that holds its epoch pin
// across the callbacks.
func TestSnapshotFromCallbacks(t *testing.T) {
	const n = 32
	for _, shards := range []int{1, 4} {
		m := snapTestMap(t, shards)
		for i := uint64(0); i < n; i++ {
			if _, _, err := m.Put(i, fmt.Sprintf("v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		// snapRead opens a snapshot, reads one key through it and closes it.
		snapRead := func(t *testing.T) {
			t.Helper()
			sn := m.Snapshot()
			defer sn.Close()
			if v, ok := sn.Get(7); !ok || v != "v7" {
				t.Fatalf("snapshot Get(7) = %q, %v; want v7", v, ok)
			}
		}
		z := m.ZC()
		views := func(scan func(func(key, value *OakRBuffer) bool)) func(*testing.T) {
			return func(t *testing.T) {
				scan(func(_, _ *OakRBuffer) bool { snapRead(t); return false })
			}
		}
		one := func(scan func(func(*OakRBuffer) bool)) func(*testing.T) {
			return func(t *testing.T) {
				scan(func(*OakRBuffer) bool { snapRead(t); return false })
			}
		}
		var lo, hi uint64 = 2, 20
		forms := []struct {
			name string
			run  func(*testing.T)
		}{
			{"Range", func(t *testing.T) {
				m.Range(nil, nil, func(uint64, string) bool { snapRead(t); return false })
			}},
			{"RangeDescending", func(t *testing.T) {
				m.RangeDescending(nil, nil, func(uint64, string) bool { snapRead(t); return false })
			}},
			{"ZC.Ascend", views(func(f func(key, value *OakRBuffer) bool) { z.Ascend(nil, nil, f) })},
			{"ZC.Descend", views(func(f func(key, value *OakRBuffer) bool) { z.Descend(nil, nil, f) })},
			{"ZC.AscendStream", views(func(f func(key, value *OakRBuffer) bool) { z.AscendStream(nil, nil, f) })},
			{"ZC.DescendStream", views(func(f func(key, value *OakRBuffer) bool) { z.DescendStream(nil, nil, f) })},
			{"ZC.KeysStream", one(func(f func(*OakRBuffer) bool) { z.KeysStream(nil, nil, f) })},
			{"ZC.ValuesStream", one(func(f func(*OakRBuffer) bool) { z.ValuesStream(nil, nil, f) })},
			{"SubMap.ZC.Ascend", views(m.SubMap(&lo, &hi).ZC().Ascend)},
			{"Iterator", func(t *testing.T) {
				it := z.Iterator(nil, nil, false, false)
				if _, _, ok := it.Next(); !ok {
					t.Fatal("iterator is empty")
				}
				snapRead(t)
			}},
			{"ZC.Read", func(t *testing.T) {
				found, err := z.Read(3, func([]byte) error { snapRead(t); return nil })
				if !found || err != nil {
					t.Fatalf("ZC().Read(3) = %v, %v", found, err)
				}
			}},
			{"OakRBuffer.Read", func(t *testing.T) {
				// A key view reads under an epoch pin, a value view under
				// the value's read lock.
				key, val, ok := z.Iterator(nil, nil, false, false).Next()
				if !ok {
					t.Fatal("iterator is empty")
				}
				for _, b := range []*OakRBuffer{key, val} {
					if err := b.Read(func([]byte) error { snapRead(t); return nil }); err != nil {
						t.Fatal(err)
					}
				}
			}},
		}
		for _, f := range forms {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, f.name), f.run)
		}
	}
}
