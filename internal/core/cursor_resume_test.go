package core

// Regression tests for cursor resume across reclamation: a pull cursor
// pins the epoch only inside Next, so between calls the chunk it points
// at can be frozen, replaced, and its dead keys retired and recycled.
// Resuming must re-enter the live chunk list at the exact position —
// even when the key the cursor paused on was itself removed and its
// chunk rebalanced away — with no skipped and no duplicated keys.
// (Before the epoch layer, the descending direction documented exactly
// this anomaly as a known limitation.)

import "testing"

// pauseCursorAt advances cur until it yields key target, collecting the
// visited keys.
func pauseCursorAt(t *testing.T, m *Map, cur *Cursor, target int) []int {
	t.Helper()
	var seen []int
	for {
		kr, _, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor exhausted before reaching key %d (saw %v)", target, seen)
		}
		k := kint(m, kr)
		seen = append(seen, k)
		if k == target {
			return seen
		}
	}
}

// churnRebalance removes keys [lo,hi) and forces the covering chunk to
// rebalance (merging the under-utilized remainder), then cycles the
// epoch so the retired key space is actually freed — the cursor must
// not be depending on those bytes.
func churnRebalance(t *testing.T, m *Map, lo, hi int) {
	t.Helper()
	for k := lo; k < hi; k++ {
		if _, err := m.Remove(ik(k)); err != nil {
			t.Fatalf("remove(%d): %v", k, err)
		}
	}
	m.rebalance(m.locateChunk(ik(lo)))
	if !m.QuiesceReclaim() {
		t.Fatal("limbo failed to drain (unexpected pinned reader)")
	}
}

// TestCursorResumeDescAfterRemoveAndRebalance pauses a descending cursor
// exactly on a key, removes that key (and its neighbourhood) so the
// chunk is rebalanced and the key's off-heap space reclaimed, then
// resumes: the cursor must continue strictly below the pause key,
// yielding every remaining smaller key exactly once.
func TestCursorResumeDescAfterRemoveAndRebalance(t *testing.T) {
	const n = 48 // keys 0..95 across several 16-entry chunks
	m := newTestMap(t, 16)
	insertInterleaved(t, m, n)

	const pause = 60
	cur := m.NewCursor(nil, nil, true)
	seen := pauseCursorAt(t, m, cur, pause)
	for i, k := range seen {
		if k != 2*n-1-i {
			t.Fatalf("pre-pause descend[%d] = %d; want %d", i, k, 2*n-1-i)
		}
	}

	// Remove the pause key and everything down to 48: the cursor's
	// position key vanishes and its chunk merges away.
	churnRebalance(t, m, 48, pause+1)

	var rest []int
	for {
		kr, _, ok := cur.Next()
		if !ok {
			break
		}
		rest = append(rest, kint(m, kr))
	}
	if len(rest) != 48 {
		t.Fatalf("resume yielded %d keys; want 48 (got %v)", len(rest), rest)
	}
	for i, k := range rest {
		if k != 47-i {
			t.Fatalf("resume descend[%d] = %d; want %d (skip or duplicate)", i, k, 47-i)
		}
	}
}

// TestCursorResumeAscAfterRemoveAndRebalance is the ascending mirror:
// pause on a key, remove a range starting at it, rebalance, resume —
// the cursor must continue at the first surviving key above the pause
// key with no repeats of already-yielded keys.
func TestCursorResumeAscAfterRemoveAndRebalance(t *testing.T) {
	const n = 48
	m := newTestMap(t, 16)
	insertInterleaved(t, m, n)

	const pause = 40
	cur := m.NewCursor(nil, nil, false)
	seen := pauseCursorAt(t, m, cur, pause)
	for i, k := range seen {
		if k != i {
			t.Fatalf("pre-pause ascend[%d] = %d; want %d", i, k, i)
		}
	}

	churnRebalance(t, m, pause, 56)

	var rest []int
	for {
		kr, _, ok := cur.Next()
		if !ok {
			break
		}
		rest = append(rest, kint(m, kr))
	}
	want := 2*n - 56 // keys 56..95
	if len(rest) != want {
		t.Fatalf("resume yielded %d keys; want %d (got %v)", len(rest), want, rest)
	}
	for i, k := range rest {
		if k != 56+i {
			t.Fatalf("resume ascend[%d] = %d; want %d (skip or duplicate)", i, k, 56+i)
		}
	}
}

// TestCursorResumeDescBeforeFirstNext covers the degenerate pause: a
// cursor created but never advanced while its starting chunk is
// rebalanced away must still scan the full (surviving) range.
func TestCursorResumeDescBeforeFirstNext(t *testing.T) {
	const n = 32
	m := newTestMap(t, 16)
	insertInterleaved(t, m, n)

	cur := m.NewCursor(nil, nil, true)
	churnRebalance(t, m, 48, 64) // drop the top chunk's range (keys 48..63)

	var keys []int
	for {
		kr, _, ok := cur.Next()
		if !ok {
			break
		}
		keys = append(keys, kint(m, kr))
	}
	if len(keys) != 48 {
		t.Fatalf("scan yielded %d keys; want 48", len(keys))
	}
	for i, k := range keys {
		if k != 47-i {
			t.Fatalf("descend[%d] = %d; want %d", i, k, 47-i)
		}
	}
}
