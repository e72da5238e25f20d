package core

import (
	"bytes"

	"oakmap/internal/chunk"
	"oakmap/internal/telemetry"
)

// Cursor is the map's one scan engine (§4.2): it owns the only loop that
// steps through a chunk's entries — the linked list going up, the
// chunk-local stack iterator (Fig. 2) going down — applies the range
// bound, skips deleted values and hops to the adjacent chunk. Everything
// that walks the map in key order is a cursor:
//
//   - pull scans (NewCursor/Next — the engine behind the facade's
//     iterator Sets, §2.2, and merged cursors) pin the epoch per Next
//     call, so a parked cursor never stalls reclamation;
//   - frozen scans (NewFrozenCursor) are pull scans over a snapshot's
//     view: the same walk, resolving each entry at the snapshot's version;
//   - push scans (Ascend/Descend) run a stack-resident cursor under one
//     pin per chunk and hand out arena-aliased keys;
//   - navigation queries (First … Higher) are a cursor's first step.
//
// Live scans give the same non-atomic guarantees: keys present for the
// scan's whole duration are yielded exactly once, in order (RB1/RB2);
// concurrently mutated keys may or may not appear. A frozen scan yields
// exactly the snapshot's content, because every key an open snapshot can
// see stays linked with a non-⊥ handle (keepDeleted).
//
// The chunk position held while unpinned can go stale: if the chunk was
// rebalanced meanwhile, revalidate re-enters the live chunk list at the
// cursor's own copy of the last visited key — in both directions — so a
// pause spanning removals and rebalances resumes at the exact position
// with no skipped or duplicated keys.
type Cursor struct {
	m      *Map
	lo, hi []byte
	desc   bool
	done   bool

	// last is the last visited key: the re-entry point after a stale
	// chunk, and the guard against revisiting entries when hopping
	// through concurrently rebalanced regions. While aliased is set it
	// points into pinned arena space, and own must copy it into buf
	// before the pin drops (those bytes may be recycled while unpinned).
	last, buf []byte
	aliased   bool

	c  *chunk.Chunk
	ei int32           // ascending: the next entry to visit
	it *chunk.DescIter // descending: c's stack iterator

	snap uint64 // frozen view's snapshot version; 0 = live
	val  []byte // frozen: the yielded key's value at snap (owned)
}

// NewCursor creates a cursor over lo ≤ key < hi (nil bounds are open).
// When desc is true the cursor yields entries in descending order.
func (m *Map) NewCursor(lo, hi []byte, desc bool) *Cursor {
	return m.NewFrozenCursor(0, lo, hi, desc)
}

// NewFrozenCursor creates a cursor over the frozen view of snapshot s
// (s = 0 is the live map): Next yields exactly the keys present at s, and
// Val their values at s. The snapshot must be stabilized and stay open
// for the cursor's lifetime.
func (m *Map) NewFrozenCursor(s uint64, lo, hi []byte, desc bool) *Cursor {
	g := m.reclaim.Pin()
	defer g.Unpin()
	cur := &Cursor{m: m, lo: lo, hi: hi, desc: desc, snap: s}
	cur.reposition()
	return cur
}

// reposition (re-)enters the live chunk list: ascending at the first key
// past last (at lo before any visit), descending below the exclusive
// bound last (hi before any visit). Every key beyond last is still
// unvisited, so re-entry is exact even if last was removed and its chunk
// merged away. Must run pinned.
func (cur *Cursor) reposition() {
	m := cur.m
	from := cur.from()
	switch {
	case from != nil:
		cur.c = m.locateChunk(from)
	case cur.desc:
		cur.c = m.walk(nil, false)
	default:
		cur.c = chunk.Forward(m.head.Load())
	}
	if cur.desc {
		cur.it = cur.c.NewDescIter(from)
	} else {
		cur.enter(from)
	}
}

// from is where the cursor (re-)enters a chunk: at the last visited key,
// or at its starting bound before any visit.
func (cur *Cursor) from() []byte {
	switch {
	case cur.last != nil:
		return cur.last
	case cur.desc:
		return cur.hi
	default:
		return cur.lo
	}
}

// enter positions an ascending cursor at c's first key ≥ from, skipping
// last itself (it was already visited).
func (cur *Cursor) enter(from []byte) {
	cur.ei = cur.c.FirstGE(from)
	for cur.last != nil && cur.ei >= 0 && bytes.Equal(cur.c.Key(cur.ei), cur.last) {
		cur.ei = cur.c.NextEntry(cur.ei)
	}
}

// revalidate must follow every re-pin: a chunk rebalanced while the
// cursor was unpinned may have had its key space recycled, so the cursor
// re-enters from the index. A chunk not replaced by now is safe to keep
// walking — whatever a later rebalance retires, this pin protects.
func (cur *Cursor) revalidate() {
	if cur.c.ReplacedBy() != nil {
		cur.reposition()
	}
}

// own moves the last visited key out of arena space; it must precede
// every unpin.
func (cur *Cursor) own() {
	if cur.aliased {
		cur.buf = append(cur.buf[:0], cur.last...)
		cur.last, cur.aliased = cur.buf, false
	}
}

// Key returns the cursor's owned copy of the last key Next yielded. The
// slice lives on-heap — never in arena space — so it stays readable
// while the cursor is parked, but it is reused by the following Next
// call: callers that keep it across steps must copy. It is the hook
// merged multi-shard scans are built on: a k-way merge can compare the
// heads of several cursors without holding any epoch pin.
func (cur *Cursor) Key() []byte { return cur.last }

// Val returns a frozen cursor's owned copy of the value, at the
// snapshot's version, of the last key Next yielded; like Key it is reused
// by the following Next call.
func (cur *Cursor) Val() []byte { return cur.val }

// Next returns the next live entry, or ok=false when the range is
// exhausted. The returned handle is live (non-⊥, not deleted) at yield
// time; the keyRef is guaranteed valid only until the next Next call
// unless the caller re-validates under its own pin (see Map.ReadKey).
// A frozen cursor returns the entry's current references, which need not
// be the snapshot's: its view is Key and Val.
func (cur *Cursor) Next() (keyRef uint64, h ValueHandle, ok bool) {
	if cur.done {
		return 0, 0, false
	}
	g := cur.m.reclaim.Pin()
	defer g.Unpin()
	tk := g.Op(cur.m.tel, telemetry.OpScanNext)
	defer tk.Done()
	cur.revalidate()
	for {
		keyRef, h, ok = cur.step(false)
		if !ok || cur.snap == 0 || cur.resolve(h) {
			break
		}
	}
	cur.own()
	return keyRef, h, ok
}

// resolve reads the value snapshot snap sees for the last visited key,
// whose entry holds h, into val, and reports false if the key was absent
// at snap. Must run pinned.
func (cur *Cursor) resolve(h ValueHandle) bool {
	v, found := cur.m.snapRead(cur.snap, h, cur.last, cur.val[:0])
	if found {
		cur.val = v
	}
	return found
}

// step advances to the next entry in range with a live value — or, for a
// frozen cursor, with any non-⊥ value, deleted ones included. It must run
// pinned, on a cursor revalidated under that pin. ok=false with done set
// means the range is exhausted. With perChunk set, ok=false with done
// unset is a chunk boundary crossed after progress: the caller cycles its
// pin (own, unpin, pin, revalidate) and calls step again.
func (cur *Cursor) step(perChunk bool) (keyRef uint64, h ValueHandle, ok bool) {
	m := cur.m
	for {
		// The one entry-stepping loop of each direction. Every visited
		// key — live or not — becomes last, so a re-entry never goes back
		// over a run of deleted entries.
		if cur.desc {
			for ei := cur.it.Next(); ei >= 0; ei = cur.it.Next() {
				key := cur.c.Key(ei)
				if cur.lo != nil && bytes.Compare(key, cur.lo) < 0 {
					cur.done = true
					return 0, 0, false
				}
				cur.last, cur.aliased = key, true
				if h := ValueHandle(cur.c.ValHandle(ei)); h != 0 && (cur.snap != 0 || !m.IsDeleted(h)) {
					return cur.c.KeyRef(ei), h, true
				}
			}
		} else {
			c := cur.c
			for ei := cur.ei; ei >= 0; ei = cur.ei {
				key := c.Key(ei)
				if cur.hi != nil && bytes.Compare(key, cur.hi) >= 0 {
					cur.done = true
					return 0, 0, false
				}
				cur.last, cur.aliased = key, true
				cur.ei = c.NextEntry(ei)
				if h := ValueHandle(c.ValHandle(ei)); h != 0 && (cur.snap != 0 || !m.IsDeleted(h)) {
					return c.KeyRef(ei), h, true
				}
			}
		}
		if perChunk && cur.aliased {
			return 0, 0, false
		}
		if !cur.hop() {
			cur.done = true
			return 0, 0, false
		}
	}
}

// hop moves from an exhausted chunk to the adjacent one, reporting false
// at the end of the list or of the range.
func (cur *Cursor) hop() bool {
	m := cur.m
	if cur.desc {
		// One index query per exhausted chunk rather than one per key
		// (§4.2). The head chunk (nil minKey) has no predecessor.
		mk := cur.c.MinKey()
		if mk == nil || (cur.lo != nil && bytes.Compare(mk, cur.lo) <= 0) {
			return false
		}
		// All remaining keys are < c.minKey; that also bounds against
		// duplicates if the predecessor was rebalanced meanwhile.
		cur.c = m.prevChunk(mk)
		cur.it = cur.c.NewDescIter(mk)
		return true
	}
	n := cur.c.Next()
	if n == nil {
		return false
	}
	// The successor need not start past the keys already visited, nor at
	// lo: a replacement may cover ranges behind the cursor (a merge with
	// c's replacement), and c itself may be a split's first half entered
	// below lo. Enter it at the first key past last — at lo before any
	// visit.
	cur.c = chunk.Forward(n)
	cur.enter(cur.from())
	return true
}
