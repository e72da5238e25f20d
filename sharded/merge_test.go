package sharded

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"testing"

	"oakmap/internal/core"
)

// --- loser-tree property tests (white box) ---
//
// The tree is exercised directly over hand-built leaves, each backed by
// a private single core map holding an arbitrary key subset — including
// empty leaves and leaves that exhaust long before the others — and the
// merged output is compared against a reference sort of the union.

// mkLeaf builds a leaf over a fresh core map containing exactly keys,
// with its cursor primed (as NewCursor does).
func mkLeaf(t *testing.T, keys [][]byte, desc bool) *leaf {
	t.Helper()
	s := core.New(&core.Options{ChunkCapacity: 16, Pool: testPool(t)})
	t.Cleanup(s.Close)
	for _, k := range keys {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	l := &leaf{src: s, cur: s.NewCursor(nil, nil, desc)}
	l.advance()
	return l
}

// drainTree pulls every key out of a fresh loser tree over the leaves.
func drainTree(t *testing.T, leaves []*leaf, desc bool) [][]byte {
	t.Helper()
	tree := newLoserTree(desc, leaves)
	var out [][]byte
	for {
		w := tree.winner()
		if w == nil {
			return out
		}
		out = append(out, append([]byte(nil), w.key...))
		tree.pop()
	}
}

func refMerge(parts [][][]byte, desc bool) [][]byte {
	var all [][]byte
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		c := bytes.Compare(all[i], all[j])
		if desc {
			return c > 0
		}
		return c < 0
	})
	return all
}

func sameKeys(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestLoserTreeMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 40; trial++ {
		k := 1 + int(rng.Uint64()%6)
		desc := trial%2 == 1
		parts := make([][][]byte, k)
		for s := 0; s < k; s++ {
			// Uneven sizes on purpose: some leaves empty, some long, so
			// single-leaf exhaustion happens mid-merge.
			n := int(rng.Uint64() % 20)
			if rng.Uint64()%4 == 0 {
				n = 0
			}
			seen := map[int]bool{}
			for len(parts[s]) < n {
				v := int(rng.Uint64() % 500)
				// Disjoint within a leaf (a map holds a key once); across
				// leaves duplicates are allowed and must merge stably.
				if seen[v] {
					continue
				}
				seen[v] = true
				parts[s] = append(parts[s], ik(v))
			}
		}
		leaves := make([]*leaf, k)
		for s := range parts {
			leaves[s] = mkLeaf(t, parts[s], desc)
		}
		got := drainTree(t, leaves, desc)
		want := refMerge(parts, desc)
		if !sameKeys(got, want) {
			t.Fatalf("trial %d (k=%d desc=%v): merged %d keys != reference %d",
				trial, k, desc, len(got), len(want))
		}
	}
}

func TestLoserTreeAllEmpty(t *testing.T) {
	leaves := []*leaf{mkLeaf(t, nil, false), mkLeaf(t, nil, false), mkLeaf(t, nil, false)}
	if got := drainTree(t, leaves, false); len(got) != 0 {
		t.Fatalf("merge of empty leaves yielded %d keys", len(got))
	}
}

func TestLoserTreeSingleLiveLeaf(t *testing.T) {
	keys := [][]byte{ik(1), ik(2), ik(3)}
	leaves := []*leaf{mkLeaf(t, nil, false), mkLeaf(t, keys, false), mkLeaf(t, nil, false)}
	got := drainTree(t, leaves, false)
	if !sameKeys(got, keys) {
		t.Fatalf("single live leaf: got %d keys", len(got))
	}
}

// TestLoserTreeTieStability: equal keys on different leaves must come
// out lowest-leaf-first (cannot happen between shards of one map, but
// the tree must not misorder or drop them).
func TestLoserTreeTieStability(t *testing.T) {
	l0 := mkLeaf(t, [][]byte{ik(5)}, false)
	l1 := mkLeaf(t, [][]byte{ik(5)}, false)
	tree := newLoserTree(false, []*leaf{l0, l1})
	first := tree.winner()
	if first == nil || first != l0 {
		t.Fatal("tie did not go to the lower leaf")
	}
	tree.pop()
	second := tree.winner()
	if second == nil || second != l1 {
		t.Fatal("tied duplicate dropped")
	}
	tree.pop()
	if tree.winner() != nil {
		t.Fatal("tree did not drain")
	}
}

// --- merged scan tests (black box, through sharded.Map) ---

// collectScan gathers keys from Ascend/Descend, asserting the callback
// contract along the way: src is the routed shard and the value behind
// (src, h) is readable or concurrently deleted, never garbage.
func collectScan(t *testing.T, m *Map, lo, hi []byte, desc bool) [][]byte {
	t.Helper()
	var got [][]byte
	scan := m.Ascend
	if desc {
		scan = m.Descend
	}
	scan(lo, hi, func(src *core.Map, key []byte, kr uint64, h core.ValueHandle) bool {
		if src != m.ShardFor(key) {
			t.Fatalf("scan yielded key %x from a shard that does not own it", key)
		}
		got = append(got, append([]byte(nil), key...))
		return true
	})
	return got
}

func TestMergedScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for _, nShards := range []int{1, 2, 3, 5, 8} {
		m := newTestSharded(t, nShards, 16)
		present := map[int]bool{}
		for i := 0; i < 400; i++ {
			v := int(rng.Uint64() % 1000)
			present[v] = true
			if err := m.Put(ik(v), iv(v)); err != nil {
				t.Fatal(err)
			}
		}
		var ref [][]byte
		for v := range present {
			ref = append(ref, ik(v))
		}
		sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i], ref[j]) < 0 })

		if got := collectScan(t, m, nil, nil, false); !sameKeys(got, ref) {
			t.Fatalf("shards=%d: full ascend %d keys != reference %d", nShards, len(got), len(ref))
		}
		refDesc := make([][]byte, len(ref))
		for i := range ref {
			refDesc[i] = ref[len(ref)-1-i]
		}
		if got := collectScan(t, m, nil, nil, true); !sameKeys(got, refDesc) {
			t.Fatalf("shards=%d: full descend mismatched", nShards)
		}

		// Sub-ranges with bounds sitting exactly on present keys: lo is
		// inclusive, hi exclusive, in both directions.
		lo, hi := ref[len(ref)/4], ref[3*len(ref)/4]
		var refSub [][]byte
		for _, k := range ref {
			if bytes.Compare(k, lo) >= 0 && bytes.Compare(k, hi) < 0 {
				refSub = append(refSub, k)
			}
		}
		if got := collectScan(t, m, lo, hi, false); !sameKeys(got, refSub) {
			t.Fatalf("shards=%d: bounded ascend mismatched (%d vs %d)", nShards, len(got), len(refSub))
		}
		refSubDesc := make([][]byte, len(refSub))
		for i := range refSub {
			refSubDesc[i] = refSub[len(refSub)-1-i]
		}
		if got := collectScan(t, m, lo, hi, true); !sameKeys(got, refSubDesc) {
			t.Fatalf("shards=%d: bounded descend mismatched", nShards)
		}
	}
}

func TestMergedScanEarlyStop(t *testing.T) {
	m := newTestSharded(t, 4, 16)
	for i := 0; i < 100; i++ {
		m.Put(ik(i), iv(i))
	}
	n := 0
	m.Ascend(nil, nil, func(src *core.Map, key []byte, kr uint64, h core.ValueHandle) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d entries; want 7", n)
	}
}

// TestMergedCursorParkedAcrossChurn parks a merged cursor mid-scan while
// writers churn and rebalance every shard, then resumes: keys present
// throughout must each be yielded exactly once, in order — the
// cross-shard extension of the core cursor's resume guarantee.
func TestMergedCursorParkedAcrossChurn(t *testing.T) {
	m := newTestSharded(t, 4, 16)
	// Residents: multiples of 4, present for the cursor's whole life.
	for i := 0; i < 400; i += 4 {
		m.Put(ik(i), iv(i))
	}
	cur := m.NewCursor(nil, nil, false)
	var got [][]byte
	step := func() bool {
		src, key, _, h, ok := cur.Next()
		if !ok {
			return false
		}
		if v := int(keyInt(key)); v%4 == 0 {
			got = append(got, append([]byte(nil), key...))
		}
		_ = src
		_ = h
		return true
	}
	for i := 0; i < 50; i++ { // first stretch
		if !step() {
			break
		}
	}
	// Park: churn non-resident keys hard enough to rebalance chunks in
	// every shard (tiny chunks make this cheap), while the cursor holds
	// no pin anywhere.
	for round := 0; round < 3; round++ {
		for i := 1; i < 400; i += 2 {
			m.Put(ik(i), iv(i))
		}
		for i := 1; i < 400; i += 2 {
			m.Remove(ik(i))
		}
	}
	for step() { // resume to exhaustion
	}
	var want [][]byte
	for i := 0; i < 400; i += 4 {
		want = append(want, ik(i))
	}
	if !sameKeys(got, want) {
		t.Fatalf("parked cursor yielded %d residents; want %d (skip or duplicate across park)",
			len(got), len(want))
	}
}

// TestMergedScanLeafHandleRecycled: a merged cursor holds each shard's
// next entry — key and value handle — between steps without a pin. If
// that entry is removed meanwhile and its header slot recycled for
// another value, the leaf's handle must read as deleted, so the merge
// skips the entry instead of yielding a removed key.
func TestMergedScanLeafHandleRecycled(t *testing.T) {
	m := newTestSharded(t, 2, 16)
	for i := 0; i < 20; i++ {
		m.Put(ik(i), iv(i))
	}
	cur := m.NewCursor(nil, nil, false)
	_, first, _, _, ok := cur.Next()
	if !ok {
		t.Fatal("merged cursor yielded nothing")
	}
	// The other shard's leaf already holds its smallest key: the victim.
	victim := -1
	for i := 0; i < 20 && victim < 0; i++ {
		if m.ShardIndex(ik(i)) != m.ShardIndex(first) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("every key routed to one shard")
	}
	stale, _ := m.Get(ik(victim))
	if ok, _ := m.Remove(ik(victim)); !ok {
		t.Fatalf("Remove(%d) found nothing", victim)
	}
	if !m.Quiesce() {
		t.Fatal("limbo did not drain")
	}
	slot := func(h core.ValueHandle) uint64 { return uint64(h) & (1<<32 - 1) } // vheader's handle layout
	recycled := false
	for i := 1000; i < 3000 && !recycled; i++ {
		if m.ShardIndex(ik(i)) != m.ShardIndex(ik(victim)) {
			continue
		}
		m.Put(ik(i), iv(i))
		h, _ := m.Get(ik(i))
		recycled = slot(h) == slot(stale) && h != stale
	}
	if !recycled {
		t.Fatalf("the victim's header slot %d never came back", slot(stale))
	}
	for {
		_, key, _, _, ok := cur.Next()
		if !ok {
			break
		}
		if int(keyInt(key)) == victim {
			t.Fatalf("merged cursor yielded removed key %d through its recycled handle", victim)
		}
	}
}

func keyInt(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}
