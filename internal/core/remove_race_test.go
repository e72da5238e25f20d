package core

import (
	"slices"
	"sync"
	"testing"

	"oakmap/internal/chunk"
	"oakmap/internal/faultpoint"
)

// A remove clears its entry to ⊥ once, under the pin that found the key
// (unlinkDeleted), and never waits for a frozen chunk. These tests force
// the interleavings that leave a deleted handle linked — a remove on a
// chunk frozen before or after its rebalance gathered the entries — and
// check that every reader skips it and that the next operation on the key
// or the next rebalance of its chunk clears it. Each window is held by a
// gate with no timeout: a remove that waited on the parked rebalancer
// would hang the test, not pass it.

// parkFirst arms p so that its first hitter blocks until release; arrived
// is closed once it has. Later hits pass through.
func parkFirst(t *testing.T, p *faultpoint.Point) (arrived <-chan struct{}, release func()) {
	t.Helper()
	arr, rel := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(rel) }) }
	t.Cleanup(release)
	p.Arm(faultpoint.Hook{Decide: func(hit int64) bool {
		if hit == 1 {
			close(arr)
			<-rel
		}
		return false
	}})
	return arr, release
}

const raceKeys = 64

// raceMap is a map of keys 0..raceKeys-1 in chunks of about eight, so a
// rebalance of one of them neither merges nor triggers another.
func raceMap(t *testing.T) *Map {
	t.Helper()
	disarmOnExit(t)
	m := newTestMap(t, 16)
	for i := 0; i < raceKeys; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	return m
}

// entryOf returns k's chunk, its entry (-1 when not linked) and the
// handle that entry holds.
func entryOf(m *Map, k []byte) (*chunk.Chunk, int32, ValueHandle) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	c := m.locateChunk(k)
	ei := c.LookUp(k)
	if ei < 0 {
		return c, ei, 0
	}
	return c, ei, ValueHandle(c.ValHandle(ei))
}

// removeInWindow parks a rebalance of k's chunk at p, removes k while it
// is parked, then lets the rebalance finish. The remove must complete
// inside the window.
func removeInWindow(t *testing.T, m *Map, p *faultpoint.Point, k []byte) {
	t.Helper()
	arrived, release := parkFirst(t, p)
	target, _, _ := entryOf(m, k)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.rebalance(target)
	}()
	<-arrived
	if ok, err := m.Remove(k); !ok || err != nil {
		t.Fatalf("Remove in the %s window = %v, %v; want true", p.Name(), ok, err)
	}
	release()
	<-done
	p.Disarm()
	if target.ReplacedBy() == nil {
		t.Fatal("the parked rebalance did not replace its chunk")
	}
}

// wantKeys checks Get, both push scans and, at a fresh snapshot, both
// frozen cursors against exactly the keys 0..raceKeys-1 other than gone,
// each with its value iv(i).
func wantKeys(t *testing.T, m *Map, gone int, when string) {
	t.Helper()
	var want []int
	for i := 0; i < raceKeys; i++ {
		if i != gone {
			want = append(want, i)
		}
	}
	if _, ok := m.Get(ik(gone)); ok {
		t.Fatalf("%s: Get found removed key %d", when, gone)
	}
	for _, desc := range []bool{false, true} {
		var got []int
		scan := m.Ascend
		if desc {
			scan = m.Descend
		}
		scan(nil, nil, func(kr uint64, h ValueHandle) bool {
			got = append(got, kint(m, kr))
			return true
		})
		exp := slices.Clone(want)
		if desc {
			slices.Reverse(exp)
		}
		if !slices.Equal(got, exp) {
			t.Fatalf("%s: desc=%v scan = %v; want %v", when, desc, got, exp)
		}
	}
	s, end := takeSnap(m)
	defer end()
	for _, desc := range []bool{false, true} {
		var exp []string
		for _, i := range want {
			exp = append(exp, string(ik(i))+"="+string(iv(i)))
		}
		if desc {
			slices.Reverse(exp)
		}
		if got := frozenScan(m, s, desc); !slices.Equal(got, exp) {
			t.Fatalf("%s: desc=%v frozen cursor yielded %d entries; want %d", when, desc, len(got), len(exp))
		}
	}
}

// wantReclaimed checks that k is unlinked and that, once the limbo
// drains, the arena holds exactly the other keys and their values: the
// removed value and k's key bytes were both retired.
func wantReclaimed(t *testing.T, m *Map, k []byte) {
	t.Helper()
	if _, ei, h := entryOf(m, k); ei >= 0 {
		t.Fatalf("key %x still linked with handle %d after its chunk was rebalanced", k, h)
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo did not drain")
	}
	round := func(n int) int64 { return int64(n+7) &^ 7 }
	want := int64(raceKeys-1) * (round(len(ik(0))) + round(len(iv(0))))
	if got := m.LiveBytes(); got != want {
		t.Fatalf("LiveBytes = %d after quiesce; want %d", got, want)
	}
}

// TestRemoveRaceFrozenBeforeGather: a remove on a chunk frozen before its
// rebalance gathered the entries returns at once, and the rebalance drops
// the deleted handle and retires the key.
func TestRemoveRaceFrozenBeforeGather(t *testing.T) {
	m := raceMap(t)
	const k = 20
	removeInWindow(t, m, FpRebalanceFreeze, ik(k))
	if FpRebalanceFreeze.Hits() != 1 {
		t.Fatalf("rebalance-freeze hits = %d; want 1", FpRebalanceFreeze.Hits())
	}
	wantReclaimed(t, m, ik(k))
	wantKeys(t, m, k, "after the rebalance")
}

// gatheredThenRemoved removes key k after its chunk's rebalance gathered
// the entries and before it published the replacement, which therefore
// holds k's deleted handle. It returns that entry and handle.
func gatheredThenRemoved(t *testing.T, m *Map, k int) (*chunk.Chunk, int32, ValueHandle) {
	t.Helper()
	removeInWindow(t, m, FpRebalanceSplit, ik(k))
	c, ei, h := entryOf(m, ik(k))
	if ei < 0 || h == 0 || !m.IsDeleted(h) {
		t.Fatalf("replacement entry of key %d = (%d, handle %d); want the deleted handle linked", k, ei, h)
	}
	return c, ei, h
}

// TestRemoveRaceGatheredBeforeRemove: a remove between a rebalance's
// gather and its publish leaves the deleted handle in the replacement
// chunk. Readers skip it, and each way it can go is clean: the next
// remove reports the key absent and clears the entry, a put reuses the
// entry, and the chunk's next rebalance drops it.
func TestRemoveRaceGatheredBeforeRemove(t *testing.T) {
	const k = 20
	t.Run("readers", func(t *testing.T) {
		m := raceMap(t)
		gatheredThenRemoved(t, m, k)
		wantKeys(t, m, k, "deleted handle linked")
	})
	t.Run("remove", func(t *testing.T) {
		m := raceMap(t)
		c, ei, _ := gatheredThenRemoved(t, m, k)
		if ok, err := m.Remove(ik(k)); ok || err != nil {
			t.Fatalf("second Remove = %v, %v; want false", ok, err)
		}
		if h := c.ValHandle(ei); h != 0 {
			t.Fatalf("entry holds handle %d after the second remove; want ⊥", h)
		}
		wantKeys(t, m, k, "entry cleared")
	})
	t.Run("put", func(t *testing.T) {
		m := raceMap(t)
		c, ei, _ := gatheredThenRemoved(t, m, k)
		allocated := c.Allocated()
		mustPut(t, m, ik(k), []byte("again"))
		if c2, ei2, _ := entryOf(m, ik(k)); c2 != c || ei2 != ei || c.Allocated() != allocated {
			t.Fatalf("put linked a new entry (%d of %d allocated); want entry %d reused", ei2, c.Allocated(), ei)
		}
		if got, ok := getString(t, m, ik(k)); !ok || got != "again" {
			t.Fatalf("Get = %q, %v; want again", got, ok)
		}
	})
	t.Run("rebalance", func(t *testing.T) {
		m := raceMap(t)
		c, _, _ := gatheredThenRemoved(t, m, k)
		m.rebalance(c)
		wantReclaimed(t, m, ik(k))
		wantKeys(t, m, k, "after the next rebalance")
	})
}

// TestRemoveRaceGatheredSnapshotOpen is the gathered-then-removed race
// with a snapshot open that sees the key: the snapshot keeps reading the
// old value through a second remove and a rebalance, because both leave
// the deleted handle linked. After the snapshot closes, the next
// rebalance drops the entry.
func TestRemoveRaceGatheredSnapshotOpen(t *testing.T) {
	m := raceMap(t)
	const k = 20
	s, end := takeSnap(m)
	defer end()
	_, _, h := gatheredThenRemoved(t, m, k)

	snapSees := func(when string) {
		t.Helper()
		if got, ok := snapGetString(t, m, s, ik(k)); !ok || got != string(iv(k)) {
			t.Fatalf("%s: SnapGet = %q, %v; want %q", when, got, ok, iv(k))
		}
		for _, desc := range []bool{false, true} {
			got := frozenScan(m, s, desc)
			if len(got) != raceKeys || !slices.Contains(got, string(ik(k))+"="+string(iv(k))) {
				t.Fatalf("%s: desc=%v frozen cursor yielded %d entries without key %d", when, desc, len(got), k)
			}
		}
		if _, ei, got := entryOf(m, ik(k)); ei < 0 || got != h {
			t.Fatalf("%s: entry holds handle %d; want deleted handle %d kept linked", when, got, h)
		}
	}
	snapSees("after the remove")
	if _, ok := m.Get(ik(k)); ok {
		t.Fatal("Get found the removed key")
	}
	if ok, err := m.Remove(ik(k)); ok || err != nil {
		t.Fatalf("second Remove = %v, %v; want false", ok, err)
	}
	snapSees("after a second remove")
	c, _, _ := entryOf(m, ik(k))
	m.rebalance(c)
	snapSees("after a rebalance")

	end()
	c, _, _ = entryOf(m, ik(k))
	m.rebalance(c)
	wantReclaimed(t, m, ik(k))
}

// TestRemoveRaceRebalanceAfterDeletedBit: a rebalance runs to completion
// while a remove is parked between setting the deleted bit and clearing
// its entry. The rebalance drops the entry; the remover, resuming on the
// retired chunk, leaves it alone and still reports success. A second
// remover arriving in the same window reports the key absent and clears
// the entry, so the parked remover's own clear loses its CAS. (A put in
// the window is TestChaosDeletedBitWindow.)
func TestRemoveRaceRebalanceAfterDeletedBit(t *testing.T) {
	const k = 20
	// parkRemove removes k on another goroutine, parked right after the
	// deleted bit; resume releases it and reports what Remove returned.
	parkRemove := func(t *testing.T, m *Map) (resume func() bool) {
		arrived, release := parkFirst(t, FpDeletedBit)
		res := make(chan bool, 1)
		go func() {
			ok, err := m.Remove(ik(k))
			if err != nil {
				t.Errorf("Remove: %v", err)
			}
			res <- ok
		}()
		<-arrived
		return func() bool {
			release()
			ok := <-res
			FpDeletedBit.Disarm()
			return ok
		}
	}
	t.Run("rebalance", func(t *testing.T) {
		m := raceMap(t)
		resume := parkRemove(t, m)
		c, _, _ := entryOf(m, ik(k))
		m.rebalance(c)
		if !resume() {
			t.Fatal("parked Remove reported false")
		}
		wantReclaimed(t, m, ik(k))
		wantKeys(t, m, k, "after the rebalance")
	})
	t.Run("remove", func(t *testing.T) {
		m := raceMap(t)
		resume := parkRemove(t, m)
		if ok, err := m.Remove(ik(k)); ok || err != nil {
			t.Fatalf("second Remove in the window = %v, %v; want false", ok, err)
		}
		if !resume() {
			t.Fatal("parked Remove reported false")
		}
		if _, ei, h := entryOf(m, ik(k)); ei < 0 || h != 0 {
			t.Fatalf("entry %d holds handle %d; want ⊥", ei, h)
		}
	})
}

// TestRemoveRaceUncontendedClears: with nothing racing it, each way of
// deleting a key — Remove, RemoveWith and a committed batch delete —
// leaves the key's entry linked and cleared to ⊥.
func TestRemoveRaceUncontendedClears(t *testing.T) {
	m := raceMap(t)
	removes := map[int]func(k []byte) error{
		10: func(k []byte) error { _, err := m.Remove(k); return err },
		20: func(k []byte) error { _, err := m.RemoveWith(k, func([]byte) {}); return err },
		30: func(k []byte) error { return m.ApplyBatch([]BatchOp{{Key: k, Delete: true}}) },
	}
	for i, remove := range removes {
		if err := remove(ik(i)); err != nil {
			t.Fatalf("remove of key %d: %v", i, err)
		}
		if _, ei, h := entryOf(m, ik(i)); ei < 0 || h != 0 {
			t.Fatalf("key %d: entry %d holds handle %d after an uncontended remove; want ⊥", i, ei, h)
		}
	}
}
