package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"testing"

	"oakmap/internal/chunk"
)

// TestPrefixSurvivesSplitAndMerge churns a small-chunk map whose keys
// carry one of two disjoint 26-byte heads, so splits and merges keep
// rebuilding prefix arrays over chunks whose lcp grows (a run inside one
// family shares the head and more, leaving fewer than 8 bytes to the
// prefix word) and shrinks (the chunk straddling the families shares
// nothing). A quarter of the keys is never removed: concurrent readers
// must find each of them, by point read and as the start of a scan,
// throughout; at the end the map must equal the writers' models.
func TestPrefixSurvivesSplitAndMerge(t *testing.T) {
	const perFamily = 2000
	families := []string{"alpha/0123456789/abcdefgh/", "omega/9876543210/hgfedcba/"}
	key := func(fam, i int) []byte { return binary.BigEndian.AppendUint32([]byte(families[fam]), uint32(i)) }
	val := func(fam, i int) []byte { return iv(fam*perFamily + i) }
	pinned := func(i int) bool { return i%4 == 0 }

	m := newTestMap(t, 32)
	for fam := range families {
		for i := 0; i < perFamily; i += 4 {
			mustPut(t, m, key(fam, i), val(fam, i))
		}
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 21))
			for {
				select {
				case <-stop:
					return
				default:
				}
				fam, i := rng.IntN(len(families)), rng.IntN(perFamily/4)*4
				k := key(fam, i)
				if got, ok := getString(t, m, k); !ok || got != string(val(fam, i)) {
					t.Errorf("Get(%q) = %q, %v during churn", k, got, ok)
					return
				}
				var first []byte
				m.Ascend(k, nil, func(kr uint64, _ ValueHandle) bool {
					first = append(first, m.KeyBytes(kr)...)
					return false
				})
				if !bytes.Equal(first, k) {
					t.Errorf("Ascend from %q starts at %q", k, first)
					return
				}
			}
		}(r)
	}

	// One writer per family: fill the gaps between the pinned keys (the
	// chunks split), empty them again (they merge), three times over; the
	// last round leaves half the gaps filled.
	models := make([]map[int]bool, len(families))
	for fam := range families {
		models[fam] = map[int]bool{}
		writers.Add(1)
		go func(fam int) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(uint64(fam), 22))
			var gaps []int
			for i := 0; i < perFamily; i++ {
				if !pinned(i) {
					gaps = append(gaps, i)
				}
			}
			for round := 0; round < 3; round++ {
				rng.Shuffle(len(gaps), func(x, y int) { gaps[x], gaps[y] = gaps[y], gaps[x] })
				for _, i := range gaps {
					if err := m.Put(key(fam, i), val(fam, i)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					models[fam][i] = true
				}
				rng.Shuffle(len(gaps), func(x, y int) { gaps[x], gaps[y] = gaps[y], gaps[x] })
				remove := gaps
				if round == 2 {
					remove = gaps[:len(gaps)/2]
				}
				for _, i := range remove {
					if ok, err := m.Remove(key(fam, i)); !ok || err != nil {
						t.Errorf("Remove(%q) = %v, %v", key(fam, i), ok, err)
						return
					}
					delete(models[fam], i)
				}
			}
		}(fam)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	var want [][]byte
	for fam := range families {
		for i := 0; i < perFamily; i++ {
			present := pinned(i) || models[fam][i]
			got, ok := getString(t, m, key(fam, i))
			if ok != present || (present && got != string(val(fam, i))) {
				t.Fatalf("Get(%q) = %q, %v; want present %v", key(fam, i), got, ok, present)
			}
			if present {
				want = append(want, key(fam, i))
			}
		}
	}
	n := 0
	m.Ascend(nil, nil, func(kr uint64, _ ValueHandle) bool {
		if n >= len(want) || !bytes.Equal(m.KeyBytes(kr), want[n]) {
			t.Fatalf("Ascend step %d yields %q", n, m.KeyBytes(kr))
		}
		n++
		return true
	})
	m.Descend(nil, nil, func(kr uint64, _ ValueHandle) bool {
		n--
		if n < 0 || !bytes.Equal(m.KeyBytes(kr), want[n]) {
			t.Fatalf("Descend yields %q with %d to go", m.KeyBytes(kr), n)
		}
		return true
	})
	if n != 0 {
		t.Fatalf("scans disagree with the model by %d entries", n)
	}
	if m.Rebalances() < 100 {
		t.Fatalf("only %d rebalances: the churn did not split and merge", m.Rebalances())
	}
	// A map built with no Comparator must actually get the arrays: the
	// chunk recognises bytes.Compare by function identity, which a wrapper
	// slipped in anywhere between Options and NewSorted would defeat
	// without failing anything above.
	searched := 0
	for c := m.head.Load(); c != nil; c = c.Next() {
		if c.SortedCount() < 2 {
			continue // one key: first and last word tie, no array is built
		}
		searched++
		if want := c.Capacity()*24 + c.SortedCount()*8; c.MetaBytes() < want {
			t.Fatalf("chunk %q: MetaBytes = %d < %d: %d sorted entries and no prefix array",
				c.MinKey(), c.MetaBytes(), want, c.SortedCount())
		}
	}
	if searched == 0 {
		t.Fatal("no chunk with a sorted prefix to check")
	}
}

// TestFullChunkCountsItsCapacity: every AllocateEntry that finds the
// chunk full still bumps its allocation cursor, which used to leak into
// Allocated() — Occupancy over-counted and Gather over-sized its slice
// on exactly the chunks waiting for a rebalance.
func TestFullChunkCountsItsCapacity(t *testing.T) {
	m := newTestMap(t, 16)
	c := m.head.Load()
	ref, err := m.alloc.Write(ik(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AllocateEntry(uint64(ref))
			}
		}()
	}
	wg.Wait()
	if _, st := c.AllocateEntry(uint64(ref)); st != chunk.Full {
		t.Fatalf("AllocateEntry on a hammered chunk: %v", st)
	}
	if c.Allocated() != c.Capacity() {
		t.Fatalf("Allocated() = %d on a full chunk of %d", c.Allocated(), c.Capacity())
	}
	if !m.shouldRebalance(c) {
		t.Fatal("a full chunk is not due a rebalance")
	}
	if got := m.Occupancy().Entries; got != c.Capacity() {
		t.Fatalf("Occupancy().Entries = %d; want %d", got, c.Capacity())
	}
}
