package core

import (
	"bytes"
	"sync"

	"oakmap/internal/chunk"
	"oakmap/internal/telemetry"
)

// Cursor is the map's one scan engine (§4.2): it owns the only loop that
// steps through a chunk's entries (fill) — the linked list going up, the
// chunk-local stack iterator (Fig. 2) going down — applies the range
// bound, skips deleted values and hops to the adjacent chunk. A cursor
// advances one run of entries at a time. Everything that walks the map
// in key order is a cursor:
//
//   - pull scans (NewCursor/Next — the engine behind the facade's
//     iterator Sets, §2.2, and merged cursors) advance by a run of one
//     and pin the epoch per Next call, so a parked cursor never stalls
//     reclamation;
//   - frozen scans (NewFrozenCursor) are pull scans over a snapshot's
//     view: the same walk, resolving each entry at the snapshot's version;
//   - push scans (Ascend/Descend) advance a stack-resident cursor by runs
//     of up to runLen entries under one pin per chunk, prefetch each
//     run's keys and values, and hand out arena-aliased keys;
//   - navigation queries (First … Higher) are a cursor's first run.
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
	it *chunk.DescIter // descending: c's stack iterator, reset per chunk

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
	cur := new(Cursor)
	cur.Reopen(m, s, lo, hi, desc)
	return cur
}

// Reopen re-initializes cur as m.NewFrozenCursor(s, lo, hi, desc) would,
// keeping its key and value buffers and its stack iterator, so a merge
// that reuses its leaves reopens their cursors without allocating.
func (cur *Cursor) Reopen(m *Map, s uint64, lo, hi []byte, desc bool) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	*cur = Cursor{m: m, lo: lo, hi: hi, desc: desc, snap: s, buf: cur.buf[:0], val: cur.val[:0], it: cur.it}
	cur.reposition()
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
		if cur.it == nil {
			cur.it = descIters.Get().(*chunk.DescIter)
		}
		cur.it.Reset(cur.c, from)
	} else {
		cur.enter(from)
	}
}

// descIters recycles descending cursors' stack iterators. A cursor takes
// one at its first chunk and resets it at every later one; the scans that
// end inside one call (push scans, navigation) hand it back, so in steady
// state they allocate nothing for it. A pull cursor keeps its own.
var descIters = sync.Pool{New: func() any { return new(chunk.DescIter) }}

// release hands a finished cursor's stack iterator back to descIters.
func (cur *Cursor) release() {
	if cur.it != nil {
		descIters.Put(cur.it)
		cur.it = nil
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
// exhausted: a pull cursor advances by a run of one. The returned handle
// is live (non-⊥, not deleted) when its run was gathered, under the pin
// that covers its yield; the keyRef is guaranteed valid only until the
// next Next call unless the caller re-validates under its own pin (see
// Map.ReadKey). A frozen cursor returns the entry's current references,
// which need not be the snapshot's: its view is Key and Val.
func (cur *Cursor) Next() (keyRef uint64, h ValueHandle, ok bool) {
	if cur.done {
		return 0, 0, false
	}
	g := cur.m.reclaim.Pin()
	defer g.Unpin()
	tk := g.Op(cur.m.tel, telemetry.OpScanNext)
	defer tk.Done()
	cur.revalidate()
	var one [1]entry
	for cur.fill(one[:], false) > 0 {
		if e := one[0]; cur.snap == 0 || cur.resolve(e.h) {
			keyRef, h, ok = e.keyRef, e.h, true
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

// runLen is how many entries a push scan gathers per run: enough for the
// header misses of one run to overlap, few enough that the run (512 B on
// the scan's stack) stays in L1.
const runLen = 32

// entry is one gathered scan entry: its key's packed reference and its
// value's handle.
type entry struct {
	keyRef uint64
	h      ValueHandle
}

// fill gathers the next entries in range into run, in scan order, and
// returns how many it gathered: entries with a live value — or, for a
// frozen cursor, with any non-⊥ value, deleted ones included. It is the
// map's one per-entry loop, in two passes over one chunk: the first
// walks the entries and collects the non-⊥ ones, the second checks the
// deleted bits of all of them in one tight loop (IsLive, which also
// waits out a fresh insert's stamp), so their header misses overlap
// instead of stalling the walk one entry at a time. A run never spans
// chunks.
//
// fill must run pinned, on a cursor revalidated under that pin. 0 with
// done set means the range is exhausted. With perChunk set, 0 with done
// unset is a chunk boundary crossed after progress: the caller cycles
// its pin (own, unpin, pin, revalidate) and calls fill again.
func (cur *Cursor) fill(run []entry, perChunk bool) int {
	m := cur.m
	for !cur.done {
		// First pass: the linked list going up, the stack iterator going
		// down, until run is full, the chunk is exhausted or the bound is
		// passed. Every visited key — live or not — becomes last, so a
		// re-entry never goes back over a stretch of deleted entries.
		c, n, exhausted := cur.c, 0, false
		for n < len(run) {
			ei := cur.ei
			if cur.desc {
				ei = cur.it.Next()
			}
			if ei < 0 {
				exhausted = true
				break
			}
			key := c.Key(ei)
			if cur.desc && cur.lo != nil && bytes.Compare(key, cur.lo) < 0 ||
				!cur.desc && cur.hi != nil && bytes.Compare(key, cur.hi) >= 0 {
				cur.done = true
				break
			}
			if !cur.desc {
				cur.ei = c.NextEntry(ei)
			}
			cur.last, cur.aliased = key, true
			if h := ValueHandle(c.ValHandle(ei)); h != 0 {
				run[n] = entry{c.KeyRef(ei), h}
				n++
			}
		}
		// Second pass: drop the entries whose values are deleted.
		if cur.snap == 0 {
			live := 0
			for _, e := range run[:n] {
				if m.headers.IsLive(uint64(e.h)) {
					run[live] = e
					live++
				}
			}
			n = live
		}
		switch {
		case n > 0:
			return n
		case !exhausted: // the bound, or a full run of deleted entries
		case perChunk && cur.aliased:
			return 0
		case !cur.hop():
			cur.done = true
		}
	}
	return 0
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
		cur.it.Reset(cur.c, mk)
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
