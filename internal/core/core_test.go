package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"oakmap/internal/arena"
)

// testPool uses small blocks so tests exercise block growth.
func testPool(t testing.TB) *arena.Pool {
	t.Helper()
	return arena.NewPool(1<<20, 0)
}

func newTestMap(t testing.TB, chunkCap int) *Map {
	t.Helper()
	m := New(&Options{ChunkCapacity: chunkCap, Pool: testPool(t)})
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

func mustPut(t *testing.T, m *Map, k, v []byte) {
	t.Helper()
	if err := m.Put(k, v); err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func getString(t *testing.T, m *Map, k []byte) (string, bool) {
	t.Helper()
	h, ok := m.Get(k)
	if !ok {
		return "", false
	}
	b, err := m.CopyValue(h, nil)
	if err != nil {
		return "", false // deleted between Get and read
	}
	return string(b), true
}

func TestPutGetBasic(t *testing.T) {
	m := newTestMap(t, 64)
	if _, ok := m.Get(ik(1)); ok {
		t.Fatal("Get on empty map returned a value")
	}
	mustPut(t, m, ik(1), []byte("one"))
	if got, ok := getString(t, m, ik(1)); !ok || got != "one" {
		t.Fatalf("Get = %q, %v; want one", got, ok)
	}
	mustPut(t, m, ik(1), []byte("uno"))
	if got, _ := getString(t, m, ik(1)); got != "uno" {
		t.Fatalf("Get after overwrite = %q; want uno", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d; want 1", m.Len())
	}
}

func TestPutResizesValue(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("short"))
	long := make([]byte, 3000)
	for i := range long {
		long[i] = byte(i)
	}
	mustPut(t, m, ik(1), long)
	got, _ := getString(t, m, ik(1))
	if got != string(long) {
		t.Fatal("value mismatch after growing put")
	}
	mustPut(t, m, ik(1), []byte("tiny"))
	if got, _ := getString(t, m, ik(1)); got != "tiny" {
		t.Fatalf("value = %q after shrinking put", got)
	}
}

func TestPutIfAbsent(t *testing.T) {
	m := newTestMap(t, 64)
	ok, err := m.PutIfAbsent(ik(7), []byte("a"))
	if err != nil || !ok {
		t.Fatalf("first PutIfAbsent = %v, %v", ok, err)
	}
	ok, err = m.PutIfAbsent(ik(7), []byte("b"))
	if err != nil || ok {
		t.Fatalf("second PutIfAbsent = %v, %v; want false", ok, err)
	}
	if got, _ := getString(t, m, ik(7)); got != "a" {
		t.Fatalf("value = %q; want a", got)
	}
}

func TestRemove(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(3), []byte("x"))
	stale, ok := m.Get(ik(3))
	if !ok {
		t.Fatal("Get after Put returned nothing")
	}
	if ok, _ := m.Remove(ik(3)); !ok {
		t.Fatal("Remove existing returned false")
	}
	if _, ok := m.Get(ik(3)); ok {
		t.Fatal("Get after Remove returned a value")
	}
	if ok, _ := m.Remove(ik(3)); ok {
		t.Fatal("Remove of absent key returned true")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d; want 0", m.Len())
	}
	// Reinsert reuses the entry (case 2 of Algorithm 2).
	mustPut(t, m, ik(3), []byte("y"))
	if got, _ := getString(t, m, ik(3)); got != "y" {
		t.Fatalf("value after reinsert = %q; want y", got)
	}
	// A view of the removed value stays dead after its key is re-inserted:
	// the new value gets another handle, so the stale one never reads it.
	err := m.ReadValue(stale, func(b []byte) error {
		t.Fatalf("stale handle read %q", b)
		return nil
	})
	if err != ErrConcurrentModification {
		t.Fatalf("stale handle read err = %v; want ErrConcurrentModification", err)
	}
}

// headerSlot is the slot index of a handle (vheader's handle layout: the
// index in the low 32 bits, the slot's generation above them).
func headerSlot(h ValueHandle) uint64 { return uint64(h) & (1<<32 - 1) }

// TestReclaimHeadersStaleView: a value view and a key view of a removed
// value stay dead after the value's header slot is recycled. Once the
// limbo drains, the slot goes back to the table under a new generation;
// inserts then take it for another key's value. Both views must fail
// with ErrConcurrentModification, and neither may read the new
// occupant's bytes.
func TestReclaimHeadersStaleView(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("AAAA"))
	cur := m.NewCursor(nil, nil, false)
	keyRef, stale, ok := cur.Next()
	if !ok {
		t.Fatal("cursor over a one-key map yielded nothing")
	}
	if ok, _ := m.Remove(ik(1)); !ok {
		t.Fatal("Remove existing returned false")
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo did not drain")
	}
	var fresh ValueHandle
	for i := 2; i < 1000 && fresh == 0; i++ {
		mustPut(t, m, ik(i), []byte("BBBB"))
		if h, _ := m.Get(ik(i)); headerSlot(h) == headerSlot(stale) {
			fresh = h
		}
	}
	if fresh == 0 {
		t.Fatalf("slot %d never came back from the free lists", headerSlot(stale))
	}
	if fresh == stale {
		t.Fatalf("recycled slot kept its generation: handle %#x", fresh)
	}
	err := m.ReadValue(stale, func(b []byte) error {
		t.Fatalf("stale value view read %q", b)
		return nil
	})
	if err != ErrConcurrentModification {
		t.Fatalf("stale value view err = %v; want ErrConcurrentModification", err)
	}
	err = m.ReadKey(keyRef, stale, func(b []byte) error {
		t.Fatalf("stale key view read %x", b)
		return nil
	})
	if err != ErrConcurrentModification {
		t.Fatalf("stale key view err = %v; want ErrConcurrentModification", err)
	}
	if !m.IsDeleted(stale) {
		t.Fatal("stale handle reads live")
	}
	if got, err := m.CopyValue(fresh, nil); err != nil || string(got) != "BBBB" {
		t.Fatalf("new occupant reads %q, %v; want BBBB", got, err)
	}
}

func TestComputeIfPresent(t *testing.T) {
	m := newTestMap(t, 64)
	ok, err := m.ComputeIfPresent(ik(5), func(w *WBuffer) error { return nil })
	if err != nil || ok {
		t.Fatalf("ComputeIfPresent on absent key = %v, %v", ok, err)
	}
	mustPut(t, m, ik(5), []byte{0, 0, 0, 0, 0, 0, 0, 1})
	ok, err = m.ComputeIfPresent(ik(5), func(w *WBuffer) error {
		b := w.Bytes()
		binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)+41)
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("ComputeIfPresent = %v, %v", ok, err)
	}
	h, _ := m.Get(ik(5))
	buf, _ := m.CopyValue(h, nil)
	if got := binary.BigEndian.Uint64(buf); got != 42 {
		t.Fatalf("counter = %d; want 42", got)
	}
}

func TestComputeResize(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("ab"))
	ok, err := m.ComputeIfPresent(ik(1), func(w *WBuffer) error {
		if err := w.Resize(5); err != nil {
			return err
		}
		copy(w.Bytes(), "hello")
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("compute resize = %v, %v", ok, err)
	}
	if got, _ := getString(t, m, ik(1)); got != "hello" {
		t.Fatalf("value = %q; want hello", got)
	}
	// Shrink preserves the prefix.
	m.ComputeIfPresent(ik(1), func(w *WBuffer) error { return w.Resize(2) })
	if got, _ := getString(t, m, ik(1)); got != "he" {
		t.Fatalf("value = %q; want he", got)
	}
}

func TestPutIfAbsentComputeIfPresent(t *testing.T) {
	m := newTestMap(t, 64)
	inc := func(w *WBuffer) error {
		b := w.Bytes()
		binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)+1)
		return nil
	}
	init := make([]byte, 8)
	binary.BigEndian.PutUint64(init, 1)
	for i := 0; i < 10; i++ {
		if err := m.PutIfAbsentComputeIfPresent(ik(9), init, inc); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := m.Get(ik(9))
	buf, _ := m.CopyValue(h, nil)
	if got := binary.BigEndian.Uint64(buf); got != 10 {
		t.Fatalf("counter = %d; want 10 (1 insert + 9 computes)", got)
	}
}

// TestManyInsertsAcrossRebalances forces many splits with a tiny chunk.
func TestManyInsertsAcrossRebalances(t *testing.T) {
	m := newTestMap(t, 32)
	const n = 5000
	perm := rand.Perm(n)
	for _, i := range perm {
		mustPut(t, m, ik(i), iv(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d; want %d", m.Len(), n)
	}
	if m.Rebalances() == 0 {
		t.Fatal("expected rebalances with chunk capacity 32")
	}
	for i := 0; i < n; i++ {
		got, ok := getString(t, m, ik(i))
		if !ok || got != string(iv(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, got, ok)
		}
	}
	// Ascending scan yields everything in order exactly once.
	var keys []int
	m.Ascend(nil, nil, func(kr uint64, h ValueHandle) bool {
		keys = append(keys, int(binary.BigEndian.Uint64(m.KeyBytes(kr))))
		return true
	})
	if len(keys) != n {
		t.Fatalf("scan yielded %d keys; want %d", len(keys), n)
	}
	if !sort.IntsAreSorted(keys) {
		t.Fatal("ascending scan out of order")
	}
}

func TestDeleteHeavyWithRebalance(t *testing.T) {
	m := newTestMap(t, 32)
	const n = 2000
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	for i := 0; i < n; i += 2 {
		if ok, _ := m.Remove(ik(i)); !ok {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	// Trigger merges by inserting more (rebalances fold in dead entries).
	for i := n; i < n+500; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	for i := 0; i < n; i++ {
		_, ok := m.Get(ik(i))
		if i%2 == 0 && ok {
			t.Fatalf("removed key %d still present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("kept key %d missing", i)
		}
	}
	if want := n/2 + 500; m.Len() != want {
		t.Fatalf("Len = %d; want %d", m.Len(), want)
	}
}

func TestAscendBounds(t *testing.T) {
	m := newTestMap(t, 32)
	for i := 0; i < 100; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	var got []int
	m.Ascend(ik(10), ik(20), func(kr uint64, h ValueHandle) bool {
		got = append(got, int(binary.BigEndian.Uint64(m.KeyBytes(kr))))
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("Ascend[10,20) = %v", got)
	}
}

func TestDescend(t *testing.T) {
	m := newTestMap(t, 16) // tiny chunks: descending spans many chunks
	const n = 300
	perm := rand.Perm(n)
	for _, i := range perm {
		mustPut(t, m, ik(i), iv(i))
	}
	var got []int
	m.Descend(nil, nil, func(kr uint64, h ValueHandle) bool {
		got = append(got, int(binary.BigEndian.Uint64(m.KeyBytes(kr))))
		return true
	})
	if len(got) != n {
		t.Fatalf("Descend yielded %d keys; want %d", len(got), n)
	}
	for i, k := range got {
		if k != n-1-i {
			t.Fatalf("Descend[%d] = %d; want %d", i, k, n-1-i)
		}
	}
	// Bounded descending: [50, 75)
	got = got[:0]
	m.Descend(ik(50), ik(75), func(kr uint64, h ValueHandle) bool {
		got = append(got, int(binary.BigEndian.Uint64(m.KeyBytes(kr))))
		return true
	})
	if len(got) != 25 || got[0] != 74 || got[24] != 50 {
		t.Fatalf("Descend[50,75) = %v", got)
	}
}

func TestNavigation(t *testing.T) {
	m := newTestMap(t, 32)
	for i := 0; i < 100; i += 2 { // even keys 0..98
		mustPut(t, m, ik(i), iv(i))
	}
	keyOf := func(k []byte) int { return int(binary.BigEndian.Uint64(k)) }

	if kr, ok := m.First(); !ok || keyOf(kr) != 0 {
		t.Fatalf("First = %v", ok)
	}
	if kr, ok := m.Last(); !ok || keyOf(kr) != 98 {
		t.Fatal("Last mismatch")
	}
	if kr, ok := m.Floor(ik(51)); !ok || keyOf(kr) != 50 {
		t.Fatal("Floor(51) != 50")
	}
	if kr, ok := m.Floor(ik(50)); !ok || keyOf(kr) != 50 {
		t.Fatal("Floor(50) != 50")
	}
	if kr, ok := m.Lower(ik(50)); !ok || keyOf(kr) != 48 {
		t.Fatal("Lower(50) != 48")
	}
	if kr, ok := m.Ceiling(ik(51)); !ok || keyOf(kr) != 52 {
		t.Fatal("Ceiling(51) != 52")
	}
	if kr, ok := m.Ceiling(ik(50)); !ok || keyOf(kr) != 50 {
		t.Fatal("Ceiling(50) != 50")
	}
	if kr, ok := m.Higher(ik(50)); !ok || keyOf(kr) != 52 {
		t.Fatal("Higher(50) != 52")
	}
	if _, ok := m.Lower(ik(0)); ok {
		t.Fatal("Lower(0) should be absent")
	}
	if _, ok := m.Higher(ik(98)); ok {
		t.Fatal("Higher(98) should be absent")
	}
}

// TestConcurrentComputeAtomicity is the paper's headline semantic claim:
// unlike Java's maps, compute is atomic. N goroutines increment a shared
// off-heap counter; the final value must be exactly N×rounds.
func TestConcurrentComputeAtomicity(t *testing.T) {
	m := newTestMap(t, 128)
	init := make([]byte, 8)
	const goroutines = 8
	const rounds = 2000
	mustPut(t, m, ik(0), init)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ok, err := m.ComputeIfPresent(ik(0), func(w *WBuffer) error {
					b := w.Bytes()
					binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)+1)
					return nil
				})
				if err != nil || !ok {
					t.Errorf("compute failed: %v %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h, _ := m.Get(ik(0))
	buf, _ := m.CopyValue(h, nil)
	if got := binary.BigEndian.Uint64(buf); got != goroutines*rounds {
		t.Fatalf("counter = %d; want %d", got, goroutines*rounds)
	}
}

// TestConcurrentPutIfAbsentOneWinner: for each key, exactly one of the
// racing putIfAbsent calls must win.
func TestConcurrentPutIfAbsentOneWinner(t *testing.T) {
	m := newTestMap(t, 64)
	const keys = 500
	const goroutines = 8
	wins := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wins[g] = make([]int32, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				ok, err := m.PutIfAbsent(ik(k), []byte(fmt.Sprintf("g%d", g)))
				if err != nil {
					t.Errorf("putIfAbsent: %v", err)
					return
				}
				if ok {
					wins[g][k] = 1
				}
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		total := int32(0)
		for g := 0; g < goroutines; g++ {
			total += wins[g][k]
		}
		if total != 1 {
			t.Fatalf("key %d had %d winners", k, total)
		}
		// And the stored value matches some winner.
		got, ok := getString(t, m, ik(k))
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		for g := 0; g < goroutines; g++ {
			if wins[g][k] == 1 && got != fmt.Sprintf("g%d", g) {
				t.Fatalf("key %d: value %q but winner was g%d", k, got, g)
			}
		}
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d; want %d", m.Len(), keys)
	}
}

// TestConcurrentMixedChurn hammers the map with puts, removes, gets and
// scans on overlapping ranges; afterwards a full validation pass checks
// ordering and reachability invariants.
func TestConcurrentMixedChurn(t *testing.T) {
	m := newTestMap(t, 64)
	const keyRange = 2000
	const opsPerG = 5000
	goroutines := 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
			for i := 0; i < opsPerG; i++ {
				k := ik(int(rng.Uint64() % keyRange))
				switch rng.Uint64() % 10 {
				case 0, 1, 2, 3:
					if err := m.Put(k, iv(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 4:
					if _, err := m.Remove(k); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				case 5:
					m.ComputeIfPresent(k, func(w *WBuffer) error {
						b := w.Bytes()
						if len(b) > 0 {
							b[0] = 'Z'
						}
						return nil
					})
				case 6:
					cnt := 0
					m.Ascend(nil, nil, func(uint64, ValueHandle) bool {
						cnt++
						return cnt < 100
					})
				case 7:
					cnt := 0
					m.Descend(nil, nil, func(uint64, ValueHandle) bool {
						cnt++
						return cnt < 100
					})
				default:
					if h, ok := m.Get(k); ok {
						m.ReadValue(h, func([]byte) error { return nil })
					}
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()

	// Quiescent validation: scan is sorted, unique, and Get-consistent.
	var prev []byte
	count := 0
	m.Ascend(nil, nil, func(kr uint64, h ValueHandle) bool {
		key := m.KeyBytes(kr)
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			t.Fatalf("scan order violation: %x !< %x", prev, key)
		}
		prev = append(prev[:0], key...)
		if _, ok := m.Get(key); !ok {
			t.Fatalf("scanned key %x not gettable", key)
		}
		count++
		return true
	})
	if count != m.Len() {
		t.Fatalf("scan count %d != Len %d", count, m.Len())
	}
}

// TestConcurrentResizeVsReaders targets the resize protocol (§2.2): a
// value's data reference may move mid-read. Writers resize values to
// random lengths, encoding the length into every byte; readers must
// always observe a self-consistent (length, content) pair, never a torn
// mix of two incarnations. The subtest keeps the test's reported name
// stable.
func TestConcurrentResizeVsReaders(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		m := newTestMap(t, 64)
		const keys = 8
		encode := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(n)
			}
			return b
		}
		for k := 0; k < keys; k++ {
			mustPut(t, m, ik(k), encode(10))
		}
		stop := make(chan struct{})
		var writers, readers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(seed uint64) {
				defer writers.Done()
				rng := rand.New(rand.NewPCG(seed, 0x5e5))
				for i := 0; i < 4000; i++ {
					k := ik(int(rng.Uint64() % keys))
					n := 1 + int(rng.Uint64()%800)
					m.ComputeIfPresent(k, func(wb *WBuffer) error {
						return wb.Set(encode(n))
					})
				}
			}(uint64(w + 1))
		}
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(seed uint64) {
				defer readers.Done()
				rng := rand.New(rand.NewPCG(seed, 0xead))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := ik(int(rng.Uint64() % keys))
					h, ok := m.Get(k)
					if !ok {
						continue
					}
					m.ReadValue(h, func(b []byte) error {
						want := byte(len(b))
						for i, c := range b {
							if c != want {
								t.Errorf("torn read at %d: byte %x, len %d", i, c, len(b))
								return nil
							}
						}
						return nil
					})
				}
			}(uint64(r + 10))
		}
		// Readers run for the writers' whole lifetime, then stop.
		writers.Wait()
		close(stop)
		readers.Wait()
	})
}

// TestFootprintAccounting: allocator accounting stays sane under churn.
func TestFootprintAccounting(t *testing.T) {
	m := newTestMap(t, 64)
	for i := 0; i < 1000; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	live := m.LiveBytes()
	if live <= 0 {
		t.Fatal("LiveBytes should be positive")
	}
	if m.Footprint() < live {
		t.Fatalf("Footprint %d < LiveBytes %d", m.Footprint(), live)
	}
	for i := 0; i < 1000; i++ {
		m.Remove(ik(i))
	}
	if after := m.LiveBytes(); after >= live {
		t.Fatalf("LiveBytes after removals %d; want < %d", after, live)
	}
}

func TestClosedMapErrors(t *testing.T) {
	m := New(&Options{ChunkCapacity: 64, Pool: testPool(t)})
	mustPut(t, m, ik(1), iv(1))
	m.Close()
	if err := m.Put(ik(2), iv(2)); err != ErrClosed {
		t.Fatalf("Put after close: %v; want ErrClosed", err)
	}
	if _, err := m.Remove(ik(1)); err != ErrClosed {
		t.Fatalf("Remove after close: %v; want ErrClosed", err)
	}
}

func TestOccupancyStats(t *testing.T) {
	m := newTestMap(t, 64)
	empty := m.Occupancy()
	if empty.Chunks != 1 || empty.Live != 0 || empty.MinLive != 0 {
		t.Fatalf("empty occupancy = %+v", empty)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	st := m.Occupancy()
	if st.Chunks < 2 {
		t.Fatalf("chunks = %d", st.Chunks)
	}
	if st.Live != n {
		t.Fatalf("live = %d; want %d", st.Live, n)
	}
	if st.Entries < st.Sorted || st.Entries < st.Live {
		t.Fatalf("inconsistent occupancy %+v", st)
	}
	if st.AvgUtilization <= 0 || st.AvgUtilization > 1 {
		t.Fatalf("utilization = %v", st.AvgUtilization)
	}
	if st.MinLive > st.MaxLive {
		t.Fatalf("min %d > max %d", st.MinLive, st.MaxLive)
	}
	// Removing everything drives live back toward zero.
	for i := 0; i < n; i++ {
		m.Remove(ik(i))
	}
	if got := m.Occupancy().Live; got != 0 {
		t.Fatalf("live after drain = %d", got)
	}
}

func TestComputeResizeFailureKeepsValue(t *testing.T) {
	m := New(&Options{ChunkCapacity: 64, Pool: arena.NewPool(1<<16, 1<<17)})
	defer m.Close()
	mustPut(t, m, ik(1), []byte("keepme"))
	ok, err := m.ComputeIfPresent(ik(1), func(w *WBuffer) error {
		return w.Resize(1 << 20) // exceeds the block size
	})
	if err == nil {
		t.Fatalf("oversized resize should fail (ok=%v)", ok)
	}
	if got, _ := getString(t, m, ik(1)); got != "keepme" {
		t.Fatalf("value after failed resize = %q", got)
	}
}

func TestCursorAscDesc(t *testing.T) {
	m := newTestMap(t, 16)
	const n = 400
	for _, i := range rand.Perm(n) {
		mustPut(t, m, ik(i), iv(i))
	}
	// Ascending cursor over [50, 350).
	cur := m.NewCursor(ik(50), ik(350), false)
	want := 50
	for {
		kr, h, ok := cur.Next()
		if !ok {
			break
		}
		if h == 0 {
			t.Fatal("cursor yielded ⊥ handle")
		}
		if got := int(binary.BigEndian.Uint64(m.KeyBytes(kr))); got != want {
			t.Fatalf("cursor got %d; want %d", got, want)
		}
		want++
	}
	if want != 350 {
		t.Fatalf("cursor stopped at %d", want)
	}
	if _, _, ok := cur.Next(); ok {
		t.Fatal("exhausted cursor yielded")
	}
	// Descending cursor mirrors it.
	cur = m.NewCursor(ik(50), ik(350), true)
	want = 349
	for {
		kr, _, ok := cur.Next()
		if !ok {
			break
		}
		if got := int(binary.BigEndian.Uint64(m.KeyBytes(kr))); got != want {
			t.Fatalf("desc cursor got %d; want %d", got, want)
		}
		want--
	}
	if want != 49 {
		t.Fatalf("desc cursor stopped at %d", want)
	}
}

func TestCursorSkipsDeleted(t *testing.T) {
	m := newTestMap(t, 16)
	for i := 0; i < 100; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	for i := 0; i < 100; i += 2 {
		m.Remove(ik(i))
	}
	for _, desc := range []bool{false, true} {
		cur := m.NewCursor(nil, nil, desc)
		count := 0
		for {
			kr, _, ok := cur.Next()
			if !ok {
				break
			}
			if int(binary.BigEndian.Uint64(m.KeyBytes(kr)))%2 == 0 {
				t.Fatalf("cursor (desc=%v) yielded removed key", desc)
			}
			count++
		}
		if count != 50 {
			t.Fatalf("cursor (desc=%v) yielded %d", desc, count)
		}
	}
}

func TestWriterVariants(t *testing.T) {
	m := newTestMap(t, 64)
	payload := []byte("written-directly")
	vw := ValueWriter{N: len(payload), Write: func(dst []byte) { copy(dst, payload) }}
	if err := m.PutWriter(ik(1), vw); err != nil {
		t.Fatal(err)
	}
	if got, _ := getString(t, m, ik(1)); got != string(payload) {
		t.Fatalf("PutWriter value = %q", got)
	}
	ok, err := m.PutIfAbsentWriter(ik(1), vw)
	if err != nil || ok {
		t.Fatalf("PutIfAbsentWriter on present = %v %v", ok, err)
	}
	ok, err = m.PutIfAbsentWriter(ik(2), vw)
	if err != nil || !ok {
		t.Fatalf("PutIfAbsentWriter on absent = %v %v", ok, err)
	}
	calls := 0
	err = m.PutIfAbsentComputeIfPresentWriter(ik(2), vw, func(w *WBuffer) error {
		calls++
		w.Bytes()[0] = 'W'
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("PIACIPWriter compute path: %v calls=%d", err, calls)
	}
	if got, _ := getString(t, m, ik(2)); got[0] != 'W' {
		t.Fatalf("value = %q", got)
	}
	// Misc accessors.
	if h, ok := m.Get(ik(1)); ok {
		n, err := m.ValueLen(h)
		if err != nil || n != len(payload) {
			t.Fatalf("ValueLen = %d %v", n, err)
		}
	}
	if m.ArenaStats().LiveBytes <= 0 {
		t.Fatal("ArenaStats")
	}
}
