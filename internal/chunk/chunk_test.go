package chunk

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"oakmap/internal/arena"
	"oakmap/internal/faultpoint"
)

type fixture struct {
	alloc *arena.Allocator
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	a := arena.NewAllocator(arena.NewPool(1<<20, 0))
	t.Cleanup(a.Close)
	return &fixture{alloc: a}
}

func (f *fixture) keyRef(t testing.TB, i int) uint64 {
	t.Helper()
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	r, err := f.alloc.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(r)
}

func kb(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func keyOf(c *Chunk, ei int32) int {
	return int(binary.BigEndian.Uint64(c.Key(ei)))
}

// insert links key i with value handle h.
func insert(t testing.TB, f *fixture, c *Chunk, i int, h uint64) int32 {
	t.Helper()
	ei, st := c.AllocateEntry(f.keyRef(t, i))
	if st != OK {
		t.Fatalf("AllocateEntry(%d): status %v", i, st)
	}
	lei, st := c.PutIfAbsentInList(ei)
	if st == Exists {
		return lei
	}
	if st != OK {
		t.Fatalf("PutIfAbsentInList(%d): status %v", i, st)
	}
	if !c.CASValHandle(lei, 0, h) {
		t.Fatalf("CASValHandle(%d) failed", i)
	}
	return lei
}

func TestEmptyChunkLookup(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 16, f.alloc, bytes.Compare)
	if c.LookUp(kb(5)) != -1 {
		t.Fatal("LookUp on empty chunk")
	}
	if c.Head() != -1 {
		t.Fatal("Head on empty chunk")
	}
	if c.FirstGE(kb(0)) != -1 {
		t.Fatal("FirstGE on empty chunk")
	}
}

func TestInsertAndLookup(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 64, f.alloc, bytes.Compare)
	order := []int{50, 10, 30, 20, 40, 60, 5}
	for i, k := range order {
		insert(t, f, c, k, uint64(i+1))
	}
	for i, k := range order {
		ei := c.LookUp(kb(k))
		if ei < 0 {
			t.Fatalf("LookUp(%d) = -1", k)
		}
		if c.ValHandle(ei) != uint64(i+1) {
			t.Fatalf("LookUp(%d): wrong handle", k)
		}
	}
	if c.LookUp(kb(35)) != -1 {
		t.Fatal("LookUp of absent key")
	}
	// The list is ascending.
	var got []int
	for cur := c.Head(); cur != -1; cur = c.NextEntry(cur) {
		got = append(got, keyOf(c, cur))
	}
	if !sort.IntsAreSorted(got) || len(got) != len(order) {
		t.Fatalf("list = %v", got)
	}
}

func TestDuplicateInsertReturnsExisting(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 64, f.alloc, bytes.Compare)
	first := insert(t, f, c, 7, 1)
	ei, st := c.AllocateEntry(f.keyRef(t, 7))
	if st != OK {
		t.Fatal("allocate")
	}
	lei, st := c.PutIfAbsentInList(ei)
	if st != Exists || lei != first {
		t.Fatalf("duplicate insert: %d, %v; want %d, Exists", lei, st, first)
	}
}

func TestAllocateEntryFull(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 4, f.alloc, bytes.Compare)
	for i := 0; i < 4; i++ {
		if _, st := c.AllocateEntry(f.keyRef(t, i)); st != OK {
			t.Fatalf("alloc %d failed", i)
		}
	}
	for i := 0; i < 3; i++ {
		if _, st := c.AllocateEntry(f.keyRef(t, 9)); st != Full {
			t.Fatalf("expected Full, got %v", st)
		}
	}
	if c.Allocated() != c.Capacity() {
		t.Fatalf("Allocated() = %d on a full chunk of %d", c.Allocated(), c.Capacity())
	}
}

func TestEntryBytes(t *testing.T) {
	if got := reflect.TypeOf(entry{}).Size(); got != entryBytes {
		t.Fatalf("entry is %d bytes; entryBytes says %d", got, entryBytes)
	}
}

func TestFrozenRejectsUpdates(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 16, f.alloc, bytes.Compare)
	ei, _ := c.AllocateEntry(f.keyRef(t, 1))
	c.Freeze()
	if !c.frozen.Load() {
		t.Fatal("Freeze left the chunk unfrozen")
	}
	if _, st := c.AllocateEntry(f.keyRef(t, 2)); st != Frozen {
		t.Fatal("AllocateEntry on frozen chunk")
	}
	if _, st := c.PutIfAbsentInList(ei); st != Frozen {
		t.Fatal("PutIfAbsentInList on frozen chunk")
	}
	if c.Publish() {
		t.Fatal("Publish on frozen chunk")
	}
	// Lookups still proceed (readers never block).
	if c.LookUp(kb(1)) != -1 {
		// entry 1 was never linked, so LookUp must miss; the point is
		// it did not panic or spin.
		t.Fatal("unexpected lookup hit")
	}
}

// A freeze that lands between a linker's scan and its link CAS must turn
// the link away: Gather has walked the list by then, so an entry linked
// after it would be in no replacement chunk, its key never retired.
func TestLinkRacingFreezeRefused(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 16, f.alloc, bytes.Compare)
	ei, _ := c.AllocateEntry(f.keyRef(t, 1))
	FpLinkCAS.Arm(faultpoint.Hook{Decide: func(int64) bool {
		c.Freeze() // the rebalancer freezes just before the CAS
		return false
	}})
	defer FpLinkCAS.Disarm()
	if _, st := c.PutIfAbsentInList(ei); st != Frozen {
		t.Fatalf("link after Freeze: status %v, want Frozen", st)
	}
	if live, dead := c.Gather(); len(live)+len(dead) != 0 {
		t.Fatalf("frozen chunk gained entries: %d live, %d dead", len(live), len(dead))
	}
}

func TestFreezeWaitsForPublished(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 16, f.alloc, bytes.Compare)
	if !c.Publish() {
		t.Fatal("publish")
	}
	done := make(chan struct{})
	go func() {
		c.Freeze()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Freeze returned while an update was published")
	default:
	}
	c.Unpublish()
	<-done
}

func TestNewSortedLayout(t *testing.T) {
	f := newFixture(t)
	var pairs []Pair
	for i := 0; i < 10; i++ {
		pairs = append(pairs, Pair{KeyRef: f.keyRef(t, i*2), ValHandle: uint64(i + 1)})
	}
	c := NewSorted(kb(0), 32, f.alloc, bytes.Compare, pairs)
	if c.SortedCount() != 10 || c.Allocated() != 10 {
		t.Fatalf("prefix = %d, allocated = %d", c.SortedCount(), c.Allocated())
	}
	// Binary search works on all prefix keys.
	for i := 0; i < 10; i++ {
		if ei := c.LookUp(kb(i * 2)); ei < 0 || c.ValHandle(ei) != uint64(i+1) {
			t.Fatalf("LookUp(%d) failed", i*2)
		}
	}
	// New inserts link through bypasses.
	insert(t, f, c, 7, 99)
	var got []int
	for cur := c.Head(); cur != -1; cur = c.NextEntry(cur) {
		got = append(got, keyOf(c, cur))
	}
	if !sort.IntsAreSorted(got) || len(got) != 11 {
		t.Fatalf("list after bypass insert = %v", got)
	}
}

func TestGather(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 64, f.alloc, bytes.Compare)
	for i := 0; i < 10; i++ {
		insert(t, f, c, i, uint64(i+1))
	}
	// Kill entries 3 and 7 (valRef → ⊥), as a remove's unlinkDeleted does.
	for _, k := range []int{3, 7} {
		ei := c.LookUp(kb(k))
		if !c.CASValHandle(ei, uint64(k+1), 0) {
			t.Fatal("CAS to ⊥")
		}
	}
	c.Freeze()
	live, dead := c.Gather()
	if len(live) != 8 {
		t.Fatalf("live = %d", len(live))
	}
	if len(dead) != 2 {
		t.Fatalf("dead = %d", len(dead))
	}
	// RB3: gathered pairs are sorted.
	for i := 1; i < len(live); i++ {
		a := f.alloc.Bytes(arena.Ref(live[i-1].KeyRef))
		b := f.alloc.Bytes(arena.Ref(live[i].KeyRef))
		if bytes.Compare(a, b) >= 0 {
			t.Fatal("gather not sorted")
		}
	}
}

func TestForward(t *testing.T) {
	f := newFixture(t)
	a := New(nil, 16, f.alloc, bytes.Compare)
	b := New(nil, 16, f.alloc, bytes.Compare)
	c := New(nil, 16, f.alloc, bytes.Compare)
	if Forward(a) != a {
		t.Fatal("Forward of live chunk")
	}
	a.SetReplacedBy(b)
	b.SetReplacedBy(c)
	if Forward(a) != c {
		t.Fatal("Forward chain")
	}
}

func TestDescIterFullChunk(t *testing.T) {
	f := newFixture(t)
	// Reproduce the paper's Fig. 2: prefix [2,5,6,9] with bypasses
	// 3,4 after 2; 7,8 after 6.
	var pairs []Pair
	for _, k := range []int{2, 5, 6, 9} {
		pairs = append(pairs, Pair{KeyRef: f.keyRef(t, k), ValHandle: uint64(k)})
	}
	c := NewSorted(nil, 32, f.alloc, bytes.Compare, pairs)
	for _, k := range []int{3, 4, 7, 8} {
		insert(t, f, c, k, uint64(k))
	}
	it := c.NewDescIter(nil)
	var got []int
	for ei := it.Next(); ei != -1; ei = it.Next() {
		got = append(got, keyOf(c, ei))
	}
	want := []int{9, 8, 7, 6, 5, 4, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("desc = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("desc = %v; want %v", got, want)
		}
	}
}

func TestDescIterBound(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 64, f.alloc, bytes.Compare)
	for i := 0; i < 20; i++ {
		insert(t, f, c, i, uint64(i+1))
	}
	it := c.NewDescIter(kb(10)) // keys < 10
	var got []int
	for ei := it.Next(); ei != -1; ei = it.Next() {
		got = append(got, keyOf(c, ei))
	}
	if len(got) != 10 || got[0] != 9 || got[9] != 0 {
		t.Fatalf("bounded desc = %v", got)
	}
}

func TestDescIterEmpty(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 16, f.alloc, bytes.Compare)
	if c.NewDescIter(nil).Next() != -1 {
		t.Fatal("desc on empty chunk")
	}
	insert(t, f, c, 5, 1)
	if c.NewDescIter(kb(5)).Next() != -1 {
		t.Fatal("desc with bound below all keys")
	}
}

// TestDescIterReset: one iterator reset across chunks — a deep unsorted
// run, then a short one, then a bounded deep one — yields what a fresh
// iterator yields on each, whatever its reused stack held before.
func TestDescIterReset(t *testing.T) {
	f := newFixture(t)
	deep := New(nil, 64, f.alloc, bytes.Compare)
	for i := 0; i < 48; i++ {
		insert(t, f, deep, i, uint64(i+1))
	}
	short := New(nil, 64, f.alloc, bytes.Compare)
	for i := 0; i < 3; i++ {
		insert(t, f, short, i, uint64(i+1))
	}
	walk := func(it *DescIter) (keys []int) {
		for ei := it.Next(); ei != -1; ei = it.Next() {
			keys = append(keys, keyOf(it.c, ei))
		}
		return keys
	}
	var it DescIter
	for _, tc := range []struct {
		c  *Chunk
		hi []byte
	}{{deep, nil}, {short, nil}, {deep, kb(33)}, {short, kb(1)}} {
		it.Reset(tc.c, tc.hi)
		got, want := walk(&it), walk(tc.c.NewDescIter(tc.hi))
		if !reflect.DeepEqual(got, want) || len(want) == 0 {
			t.Fatalf("reset iterator yields %v, a fresh one %v", got, want)
		}
	}
}

// Property: for any insertion set, DescIter yields exactly the reverse
// of the ascending list.
func TestDescIterReversesProperty(t *testing.T) {
	f := func(seed uint64, prefixN, bypassN uint8) bool {
		fx := arena.NewAllocator(arena.NewPool(1<<20, 0))
		defer fx.Close()
		rng := rand.New(rand.NewPCG(seed, 1))
		used := map[int]bool{}
		var prefixKeys []int
		for len(prefixKeys) < int(prefixN%20)+1 {
			k := int(rng.Uint64() % 1000)
			if !used[k] {
				used[k] = true
				prefixKeys = append(prefixKeys, k)
			}
		}
		sort.Ints(prefixKeys)
		var pairs []Pair
		for _, k := range prefixKeys {
			b := kb(k)
			r, _ := fx.Write(b)
			pairs = append(pairs, Pair{KeyRef: uint64(r), ValHandle: uint64(k) + 1})
		}
		c := NewSorted(nil, 256, fx, bytes.Compare, pairs)
		for i := 0; i < int(bypassN); i++ {
			k := int(rng.Uint64() % 1000)
			if used[k] {
				continue
			}
			used[k] = true
			r, _ := fx.Write(kb(k))
			ei, st := c.AllocateEntry(uint64(r))
			if st != OK {
				return false
			}
			lei, st := c.PutIfAbsentInList(ei)
			if st != OK {
				return false
			}
			c.CASValHandle(lei, 0, uint64(k)+1)
		}
		var asc []int
		for cur := c.Head(); cur != -1; cur = c.NextEntry(cur) {
			asc = append(asc, keyOf(c, cur))
		}
		it := c.NewDescIter(nil)
		var desc []int
		for ei := it.Next(); ei != -1; ei = it.Next() {
			desc = append(desc, keyOf(c, ei))
		}
		if len(asc) != len(desc) {
			return false
		}
		for i := range asc {
			if asc[i] != desc[len(desc)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertUniqueness: racing inserts of overlapping key sets
// preserve the at-most-one-entry-per-key invariant.
func TestConcurrentInsertUniqueness(t *testing.T) {
	f := newFixture(t)
	c := New(nil, 4096, f.alloc, bytes.Compare)
	const keys = 300
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				ei, st := c.AllocateEntry(f.keyRef(t, k))
				if st != OK {
					t.Error("alloc failed")
					return
				}
				lei, st := c.PutIfAbsentInList(ei)
				if st == OK {
					c.CASValHandle(lei, 0, uint64(g+1))
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[int]bool{}
	count := 0
	prev := -1
	for cur := c.Head(); cur != -1; cur = c.NextEntry(cur) {
		k := keyOf(c, cur)
		if seen[k] {
			t.Fatalf("key %d linked twice", k)
		}
		if k <= prev {
			t.Fatalf("order violation at %d", k)
		}
		seen[k] = true
		prev = k
		count++
	}
	if count != keys {
		t.Fatalf("linked %d keys; want %d", count, keys)
	}
}

// TestDescIterDuringConcurrentInserts: a descending iterator must stay
// sorted-descending and terminate while writers add bypass entries.
func TestDescIterDuringConcurrentInserts(t *testing.T) {
	f := newFixture(t)
	var pairs []Pair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, Pair{KeyRef: f.keyRef(t, i*10), ValHandle: uint64(i + 1)})
	}
	c := NewSorted(nil, 4096, f.alloc, bytes.Compare, pairs)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewPCG(1, 2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int(rng.Uint64()%640) + 1
			if k%10 == 0 {
				continue
			}
			ei, st := c.AllocateEntry(f.keyRef(t, k))
			if st != OK {
				return // full: enough churn generated
			}
			if lei, st := c.PutIfAbsentInList(ei); st == OK {
				c.CASValHandle(lei, 0, uint64(k))
			}
		}
	}()
	for round := 0; round < 200; round++ {
		it := c.NewDescIter(nil)
		prev := -1
		steps := 0
		for ei := it.Next(); ei != -1; ei = it.Next() {
			k := keyOf(c, ei)
			if prev != -1 && k >= prev {
				t.Fatalf("descending order violation: %d after %d", k, prev)
			}
			prev = k
			steps++
			if steps > 10000 {
				t.Fatal("descending iterator failed to terminate")
			}
		}
		// The 64 stable prefix keys must always appear.
		if steps < 64 {
			t.Fatalf("round %d: saw only %d entries", round, steps)
		}
	}
	close(stop)
	<-done
}
