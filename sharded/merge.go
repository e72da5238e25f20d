package sharded

import (
	"bytes"

	"oakmap/internal/core"
)

// This file merges the per-shard ordered streams back into one globally
// sorted scan. The engine is a loser tree — the classic k-way merge
// structure: k leaves (one per shard cursor) and k internal nodes, where
// node[0] holds the overall winner and every other node holds the loser
// of the match played at it. Popping the winner replays exactly one
// root-to-leaf path (⌈log₂ k⌉ comparisons), not k-1 as a naive
// min-of-heads rescan would.
//
// Key lifetime is the delicate part. core.Cursor.Next pins its shard's
// epoch only for the call, and the key bytes it exposes via Cursor.Key
// are the cursor's own on-heap resume copy (as is a frozen cursor's
// Cursor.Val), reused by that cursor's next advance. The tree therefore
// compares leaf heads without any pin, and the merged cursor advances
// lazily: the winning leaf is not advanced until the *following* Next
// call, so the key and value slices handed to the caller stay valid for
// the full step. Callers that retain them must copy (the facade's
// iterators already do).

// EntryFunc visits one merged entry. key is an owned-by-the-iterator
// copy valid for the duration of the call; keyRef and h are references
// into src and follow the usual core validity rules (h is live when its
// run was gathered, under the pin that covers its yield; re-validate
// under src's pin for later use).
type EntryFunc func(src *core.Map, key []byte, keyRef uint64, h core.ValueHandle) bool

// leaf is one shard's stream head: a core.Cursor over the live map or
// over the shard's frozen view of a snapshot. The tree only reads key/ok
// and calls advance.
type leaf struct {
	src    *core.Map
	cur    *core.Cursor
	key    []byte // current head key: alias of cur.Key(), nil iff !ok
	keyRef uint64
	h      core.ValueHandle
	ok     bool
}

func (l *leaf) advance() {
	l.keyRef, l.h, l.ok = l.cur.Next()
	if l.ok {
		l.key = l.cur.Key()
	} else {
		l.key = nil
	}
}

// loserTree is the k-way merge state. node has one slot per leaf;
// node[0] is the winner, node[1:] hold match losers. Exhausted leaves
// lose every match, so they sink and the tree drains cleanly without
// sentinel keys.
type loserTree struct {
	desc   bool
	leaves []*leaf
	node   []int
}

func newLoserTree(desc bool, leaves []*leaf) *loserTree {
	t := &loserTree{desc: desc, leaves: leaves, node: make([]int, len(leaves))}
	t.init()
	return t
}

// beats reports whether leaf a wins the match against leaf b: live beats
// exhausted, smaller key beats larger (reversed when descending), and
// ties — impossible between shards of one map, but allowed by the type —
// go to the lower index, keeping the merge stable.
func (t *loserTree) beats(a, b int) bool {
	la, lb := t.leaves[a], t.leaves[b]
	if !la.ok {
		return false
	}
	if !lb.ok {
		return true
	}
	c := bytes.Compare(la.key, lb.key)
	if t.desc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return a < b
}

// init builds the tree by replaying each leaf up its path in increasing
// leaf order. A leaf that reaches an empty node parks there and stops;
// matches at occupied nodes leave the loser behind and send the winner
// up. The last contender on each path that climbs past node 1 becomes
// the champion in node[0].
func (t *loserTree) init() {
	k := len(t.leaves)
	for i := range t.node {
		t.node[i] = -1
	}
	for s := 0; s < k; s++ {
		w := s
		parked := false
		for i := (s + k) / 2; i >= 1; i /= 2 {
			if t.node[i] == -1 {
				t.node[i] = w
				parked = true
				break
			}
			if t.beats(t.node[i], w) {
				w, t.node[i] = t.node[i], w
			}
		}
		if !parked {
			t.node[0] = w
		}
	}
}

// winner returns the current winning leaf, or nil when every leaf is
// exhausted.
func (t *loserTree) winner() *leaf {
	l := t.leaves[t.node[0]]
	if !l.ok {
		return nil
	}
	return l
}

// pop advances the winning leaf and replays its path to find the next
// winner.
func (t *loserTree) pop() {
	k := len(t.leaves)
	w := t.node[0]
	t.leaves[w].advance()
	for i := (w + k) / 2; i >= 1; i /= 2 {
		if t.beats(t.node[i], w) {
			w, t.node[i] = t.node[i], w
		}
	}
	t.node[0] = w
}

// Cursor is a pull-based merged scan across all shards — the sharded
// analogue of core.Cursor, with the same non-atomic guarantees extended
// globally: keys present in the map for the cursor's whole lifetime are
// yielded exactly once, in global order. Over a snapshot
// (Snapshot.NewCursor) the leaves are frozen cursors and the merge yields
// exactly the frozen view. Between Next calls no shard's epoch is pinned,
// so a parked merged cursor stalls no reclamation anywhere.
type Cursor struct {
	t         *loserTree
	started   bool
	frozen    bool
	lastShard int
}

// NewCursor opens a merged cursor over lo ≤ key < hi (nil bounds open),
// descending when desc is set.
func (m *Map) NewCursor(lo, hi []byte, desc bool) *Cursor {
	return m.merge(lo, hi, desc, nil)
}

// merge builds a merged cursor with one leaf per shard: live when vers is
// nil, else frozen at shard i's snapshot version vers[i].
func (m *Map) merge(lo, hi []byte, desc bool, vers []uint64) *Cursor {
	c := new(Cursor)
	m.open(c, lo, hi, desc, vers)
	return c
}

// open (re)starts c as merge(lo, hi, desc, vers) would. A cursor opened
// before keeps its tree, its leaves and their core cursors with their
// buffers, so reopening it allocates nothing.
func (m *Map) open(c *Cursor, lo, hi []byte, desc bool, vers []uint64) {
	var leaves []*leaf
	if c.t != nil {
		leaves = c.t.leaves
	} else {
		leaves = make([]*leaf, len(m.shards))
		for i := range leaves {
			leaves[i] = &leaf{cur: new(core.Cursor)}
		}
	}
	for i, s := range m.shards {
		var v uint64
		if vers != nil {
			v = vers[i]
		}
		l := leaves[i]
		l.src = s
		l.cur.Reopen(s, v, lo, hi, desc)
		l.advance() // prime the head before building the tree
	}
	if c.t == nil {
		c.t = newLoserTree(desc, leaves)
	} else {
		c.t.desc = desc
		c.t.init()
	}
	c.started, c.frozen, c.lastShard = false, vers != nil, -1
}

// Next returns the next merged entry, or ok=false when every shard is
// exhausted. key is valid until the following Next call; keyRef/h are
// references into src (h live at yield time). On a frozen cursor read
// the entry's value with Val, not through h.
func (c *Cursor) Next() (src *core.Map, key []byte, keyRef uint64, h core.ValueHandle, ok bool) {
	for {
		if c.started {
			c.t.pop()
		}
		c.started = true
		w := c.t.winner()
		if w == nil {
			return nil, nil, 0, 0, false
		}
		if i := c.t.node[0]; i != c.lastShard { // leaves are shard-indexed
			// The scan's attention rotated to another shard: the hot spot
			// for resume/skip bugs, so give chaos hooks a window here.
			FpScanRotate.Fire()
			c.lastShard = i
		}
		if !c.frozen && w.src.IsDeleted(w.h) {
			// Deleted since the leaf advanced (the merge holds entries one
			// step before yielding them): skip, as a pinned scan would.
			continue
		}
		return w.src, w.key, w.keyRef, w.h, true
	}
}

// Val returns a frozen cursor's value for the entry Next last yielded, at
// the snapshot's version; like key it is valid until the following Next.
func (c *Cursor) Val() []byte { return c.t.leaves[c.t.node[0]].cur.Val() }

// Ascend streams the merged entries in ascending order over
// lo ≤ key < hi, stopping early if yield returns false. With one shard
// it degenerates to the core scan — same pin discipline, zero merge
// overhead, and arena-backed key slices (valid for the callback, like
// every core scan).
func (m *Map) Ascend(lo, hi []byte, yield EntryFunc) {
	m.scan(lo, hi, false, yield)
}

// Descend streams the merged entries in descending order (first key < hi
// down to lo), stopping early if yield returns false.
func (m *Map) Descend(lo, hi []byte, yield EntryFunc) {
	m.scan(lo, hi, true, yield)
}

func (m *Map) scan(lo, hi []byte, desc bool, yield EntryFunc) {
	if len(m.shards) == 1 {
		s := m.shards[0]
		coreYield := func(kr uint64, h core.ValueHandle) bool {
			return yield(s, s.KeyBytes(kr), kr, h)
		}
		if desc {
			s.Descend(lo, hi, coreYield)
		} else {
			s.Ascend(lo, hi, coreYield)
		}
		return
	}
	// Push scans end inside this call, so their merge state goes back to
	// the map for the next scan.
	cur, _ := m.merges.Get().(*Cursor)
	if cur == nil {
		cur = new(Cursor)
	}
	defer m.merges.Put(cur)
	m.open(cur, lo, hi, desc, nil)
	for {
		src, key, kr, h, ok := cur.Next()
		if !ok {
			return
		}
		if !yield(src, key, kr, h) {
			return
		}
	}
}
