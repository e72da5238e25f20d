package core

import (
	"oakmap/internal/arena"
	"oakmap/internal/telemetry"
)

// EntryFunc receives a scanned entry: the key's packed reference and the
// value's handle. Returning false stops the scan. The value handle is
// live (non-⊥, not deleted) when its run was gathered, under the pin that
// covers its yield: an earlier callback of the same run may have removed
// it since, and a value read then fails with ErrConcurrentModification.
// As with all Oak scans the view is non-atomic (§1.1).
type EntryFunc func(keyRef uint64, h ValueHandle) bool

// Ascend scans entries with lo ≤ key < hi in ascending order (nil bounds
// are open): each chunk's entries linked list, then a hop to the next
// chunk (§4.2). The keyRef handed to yield is readable via KeyBytes for
// the duration of the callback.
func (m *Map) Ascend(lo, hi []byte, yield EntryFunc) { m.scan(lo, hi, false, yield) }

// Descend scans entries with lo ≤ key < hi in descending order using the
// chunk-local stack iterator (§4.2, Fig. 2), issuing only one chunk
// lookup per exhausted chunk rather than one per key.
func (m *Map) Descend(lo, hi []byte, yield EntryFunc) { m.scan(lo, hi, true, yield) }

// scan is the push form of the cursor: a stack-resident Cursor advanced
// one run of up to runLen entries at a time, under a pin that is cycled
// per chunk, not held for the scan's whole duration. Chunk pointers and
// keys stay valid while pinned, and at each chunk boundary the pin is
// cycled and the cursor revalidated, so a long scan — or a slow user
// callback — stalls reclamation by at most one chunk's worth of yields
// instead of freezing the global epoch (and growing the limbo lists
// without bound) for the entire traversal. The pull-based Cursor.Next
// goes further and pins per call.
//
// Before a run's callbacks, every gathered key and value is prefetched:
// entries sit in key order in the chunk, but their keys and values lie
// wherever ingest put them, so without the hints each callback would
// stall on two cache misses in turn. The value's data word is read
// without its lock; a stale ref only wastes its hint.
//
// One scan_next op for telemetry is one cursor advance — one run here, as
// one Next is for a pull cursor — timed without the user callbacks.
func (m *Map) scan(lo, hi []byte, desc bool, yield EntryFunc) {
	g := m.reclaim.Pin()
	defer func() { g.Unpin() }()
	cur := Cursor{m: m, lo: lo, hi: hi, desc: desc}
	defer cur.release()
	cur.reposition()
	var run [runLen]entry
	for {
		tk := g.Op(m.tel, telemetry.OpScanNext)
		n := cur.fill(run[:], true)
		for _, e := range run[:n] {
			m.alloc.Prefetch(arena.Ref(e.keyRef))
			m.prefetchValue(e.h)
		}
		tk.Done()
		for _, e := range run[:n] {
			if !yield(e.keyRef, e.h) {
				return
			}
		}
		switch {
		case n > 0:
		case cur.done:
			return
		default: // chunk boundary
			cur.own()
			g.Unpin()
			g = m.reclaim.Pin()
			cur.revalidate()
		}
	}
}

// seek returns a copy of the first live key a cursor over lo ≤ key < hi
// visits, starting past the key `past` when it is non-nil — the body of
// every navigation query. The copy is taken under the pin that found the
// entry live, so it holds the key's own bytes however soon the entry is
// removed, and callers can hold and compare it freely.
func (m *Map) seek(lo, hi, past []byte, desc bool) ([]byte, bool) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	return m.seekPinned(lo, hi, past, desc)
}

func (m *Map) seekPinned(lo, hi, past []byte, desc bool) ([]byte, bool) {
	cur := Cursor{m: m, lo: lo, hi: hi, last: past, desc: desc}
	defer cur.release()
	cur.reposition()
	var one [1]entry
	if cur.fill(one[:], false) == 0 {
		return nil, false
	}
	return append([]byte(nil), m.KeyBytes(one[0].keyRef)...), true
}

// Navigation queries (the ConcurrentNavigableMap surface). Each returns
// an owned copy of the key it found.

// First returns the smallest live key.
func (m *Map) First() ([]byte, bool) { return m.seek(nil, nil, nil, false) }

// Last returns the greatest live key.
func (m *Map) Last() ([]byte, bool) { return m.seek(nil, nil, nil, true) }

// Lower returns the greatest live key < k.
func (m *Map) Lower(k []byte) ([]byte, bool) { return m.seek(nil, k, nil, true) }

// Ceiling returns the smallest live key ≥ k.
func (m *Map) Ceiling(k []byte) ([]byte, bool) { return m.seek(k, nil, nil, false) }

// Higher returns the smallest live key > k.
func (m *Map) Higher(k []byte) ([]byte, bool) { return m.seek(nil, nil, k, false) }

// Floor returns the greatest live key ≤ k: k itself when it is mapped (a
// descending cursor's bound is exclusive), else Lower(k).
func (m *Map) Floor(k []byte) ([]byte, bool) {
	g := m.reclaim.Pin() // one pin covers the exact lookup and the fallback
	defer g.Unpin()
	if _, ok := m.getPinned(k); ok {
		return append([]byte(nil), k...), true
	}
	return m.seekPinned(nil, k, nil, true)
}
