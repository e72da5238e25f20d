package core

import (
	"testing"

	"oakmap/internal/chunk"
)

// frozenScan collects a frozen cursor's whole view of snapshot s as
// "key=value" strings, in scan order.
func frozenScan(m *Map, s uint64, desc bool) []string {
	var got []string
	cur := m.NewFrozenCursor(s, nil, nil, desc)
	for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
		got = append(got, string(cur.Key())+"="+string(cur.Val()))
	}
	return got
}

// TestFrozenScanKeepsKeyAcrossRebalance: a key removed while a snapshot
// that sees it is open stays linked in its chunk — through the remove's
// unlink and through a rebalance of that chunk — so one walk of the chunk
// list still yields it with its value at the snapshot. Once the snapshot
// closes, the next rebalance drops the entry and its key: no deleted
// handle survives, and the arena holds exactly the live keys and values.
func TestFrozenScanKeepsKeyAcrossRebalance(t *testing.T) {
	m := newTestMap(t, 16)
	const n = 64
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	want := make([]string, n)
	for i := range want {
		want[i] = string(ik(i)) + "=" + string(iv(i))
	}
	removed := []int{20, 30, 31, 47}
	chunkOf := func(k []byte) *chunk.Chunk {
		g := m.reclaim.Pin()
		defer g.Unpin()
		return m.locateChunk(k)
	}

	s, end := takeSnap(m)
	for _, i := range removed {
		if ok, err := m.Remove(ik(i)); !ok || err != nil {
			t.Fatalf("Remove(%d) = %v, %v", i, ok, err)
		}
	}
	// Fill in right after each removed key until its chunk is replaced.
	live := map[string]string{}
	for i := 0; i < n; i++ {
		live[string(ik(i))] = string(iv(i))
	}
	before := m.Rebalances()
	for _, i := range removed {
		delete(live, string(ik(i)))
		c := chunkOf(ik(i))
		for j := 0; c.ReplacedBy() == nil; j++ {
			if j == 256 {
				t.Fatalf("chunk of key %d never rebalanced", i)
			}
			k := append(ik(i), byte(j))
			mustPut(t, m, k, iv(j))
			live[string(k)] = string(iv(j))
		}
	}
	if m.Rebalances() == before {
		t.Fatal("Rebalances() did not move")
	}

	for _, desc := range []bool{false, true} {
		got := frozenScan(m, s, desc)
		if len(got) != n {
			t.Fatalf("desc=%v: frozen scan yielded %d entries; want %d", desc, len(got), n)
		}
		for i, w := range want {
			j := i
			if desc {
				j = n - 1 - i
			}
			if got[j] != w {
				t.Fatalf("desc=%v: entry %d = %q; want %q", desc, j, got[j], w)
			}
		}
	}

	end()
	for _, i := range removed {
		m.rebalance(chunkOf(ik(i)))
	}
	var liveBytes int64
	round := func(n int) int64 { return int64(n+7) &^ 7 }
	for k, v := range live {
		liveBytes += round(len(k)) + round(len(v))
	}
	entries := 0
	for c := m.head.Load(); c != nil; c = c.Next() {
		for ei := c.Head(); ei >= 0; ei = c.NextEntry(ei) {
			h := ValueHandle(c.ValHandle(ei))
			if h != 0 && m.IsDeleted(h) {
				t.Fatalf("key %x still holds deleted handle %d after the snapshot closed and its chunk rebalanced", c.Key(ei), h)
			}
			if h != 0 {
				entries++
			}
		}
	}
	if entries != len(live) {
		t.Fatalf("%d linked live entries; want %d", entries, len(live))
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo did not drain")
	}
	if got := m.LiveBytes(); got != liveBytes {
		t.Fatalf("LiveBytes = %d after quiesce; want %d (live keys + values)", got, liveBytes)
	}
	for _, i := range removed {
		if _, ok := m.Get(ik(i)); ok {
			t.Fatalf("removed key %d reads present", i)
		}
	}
}
