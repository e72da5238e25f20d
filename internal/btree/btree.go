// Package btree implements an off-heap B+ tree over []byte keys — the
// stand-in for MapDB's BTreeMap, the "only off-the-shelf data structure
// library" with off-heap allocation the paper could compare against
// (§1.2, §5.1: "at least an order-of-magnitude slower than Oak; we omit
// these results"). Having the baseline in-tree lets the omitted
// comparison be rerun: `oak-bench -btree`.
//
// The design mirrors MapDB's shape rather than a state-of-the-art
// concurrent B-tree: key and value bytes live off-heap via the arena
// allocator; interior and leaf nodes are on-heap; a single
// reader–writer lock serializes updates (MapDB's fine-grained locking
// is dominated by its (de)serialization costs; a global lock reproduces
// the same "does not scale with writers" behaviour with far less code).
// Deletions remove keys from leaves without rebalancing — acceptable for
// the ingest-heavy workloads the evaluation runs.
package btree

import (
	"bytes"
	"sync"

	"oakmap/internal/arena"
)

// order is the maximum number of keys per node.
const order = 64

type node struct {
	leaf     bool
	keys     []arena.Ref // order keys (separators in interior nodes)
	vals     []arena.Ref // leaf only: values, parallel to keys
	children []*node     // interior only: len(keys)+1 children
	next     *node       // leaf only: right sibling
}

// Map is an off-heap B+ tree map.
type Map struct {
	mu    sync.RWMutex
	root  *node
	alloc *arena.Allocator
	size  int
}

// New creates an empty tree drawing blocks from pool (nil = shared).
func New(pool *arena.Pool) *Map {
	if pool == nil {
		pool = arena.DefaultPool()
	}
	return &Map{
		root:  &node{leaf: true},
		alloc: arena.NewAllocator(pool),
	}
}

// Len returns the number of mappings.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// Footprint returns the off-heap bytes held.
func (m *Map) Footprint() int64 { return m.alloc.Footprint() }

// Close releases the off-heap blocks.
func (m *Map) Close() { m.alloc.Close() }

func (m *Map) keyBytes(r arena.Ref) []byte { return m.alloc.Bytes(r) }

// findLeaf descends to the leaf that may hold key. Caller holds a lock.
func (m *Map) findLeaf(key []byte) *node {
	n := m.root
	for !n.leaf {
		i := m.upperBound(n, key)
		n = n.children[i]
	}
	return n
}

// upperBound returns the child index to descend into: the number of
// separator keys ≤ key.
func (m *Map) upperBound(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(m.keyBytes(n.keys[mid]), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex returns (index, found) of key within leaf n.
func (m *Map) leafIndex(n *node, key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(m.keyBytes(n.keys[mid]), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(m.keyBytes(n.keys[lo]), key)
}

// Read runs f on the value mapped to key under the tree's read lock.
func (m *Map) Read(key []byte, f func([]byte) error) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.findLeaf(key)
	i, found := m.leafIndex(n, key)
	if !found {
		return false, nil
	}
	return true, f(m.alloc.Bytes(n.vals[i]))
}

// GetCopy returns a copy of the value mapped to key.
func (m *Map) GetCopy(key, dst []byte) ([]byte, bool) {
	var out []byte
	ok, _ := m.Read(key, func(b []byte) error {
		out = append(dst[:0], b...)
		return nil
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// Contains reports whether key is present.
func (m *Map) Contains(key []byte) bool {
	ok, _ := m.Read(key, func([]byte) error { return nil })
	return ok
}

// Put maps key to val.
func (m *Map) Put(key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.putLocked(key, val, true)
}

// PutIfAbsent inserts iff absent, reporting whether it inserted.
func (m *Map) PutIfAbsent(key, val []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.findLeaf(key)
	if _, found := m.leafIndex(n, key); found {
		return false, nil
	}
	return true, m.putLocked(key, val, false)
}

func (m *Map) putLocked(key, val []byte, overwrite bool) error {
	n := m.findLeaf(key)
	i, found := m.leafIndex(n, key)
	if found {
		if !overwrite {
			return nil
		}
		old := n.vals[i]
		if old.Len() == len(val) {
			copy(m.alloc.Bytes(old), val)
			return nil
		}
		nref, err := m.alloc.Write(val)
		if err != nil {
			return err
		}
		n.vals[i] = nref
		m.alloc.Free(old)
		return nil
	}
	kref, err := m.alloc.Write(key)
	if err != nil {
		return err
	}
	vref, err := m.alloc.Write(val)
	if err != nil {
		return err
	}
	n.keys = append(n.keys, 0)
	n.vals = append(n.vals, 0)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.vals[i+1:], n.vals[i:])
	n.keys[i] = kref
	n.vals[i] = vref
	m.size++
	if len(n.keys) > order {
		return m.splitPath(key)
	}
	return nil
}

// splitPath re-descends from the root splitting any overfull node on the
// way to key. Splitting top-down keeps parents non-full before their
// children split, so a single pass suffices. A failed separator
// allocation leaves the overfull node for the next insert to split.
func (m *Map) splitPath(key []byte) error {
	if len(m.root.keys) > order {
		left := m.root
		mid, right, err := m.splitNode(left)
		if err != nil {
			return err
		}
		m.root = &node{
			keys:     []arena.Ref{mid},
			children: []*node{left, right},
		}
	}
	n := m.root
	for !n.leaf {
		i := m.upperBound(n, key)
		c := n.children[i]
		if len(c.keys) > order {
			mid, right, err := m.splitNode(c)
			if err != nil {
				return err
			}
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = mid
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = right
			// Re-decide which side key belongs to.
			if bytes.Compare(m.keyBytes(mid), key) <= 0 {
				c = right
			}
		}
		n = c
	}
	return nil
}

// splitNode splits n in half, returning the separator and the new right
// sibling.
func (m *Map) splitNode(n *node) (arena.Ref, *node, error) {
	h := len(n.keys) / 2
	right := &node{leaf: n.leaf}
	if n.leaf {
		// The separator is a copy: Remove frees leaf keys, and the
		// allocator reuses a freed span's bytes.
		sep, err := m.alloc.Write(m.keyBytes(n.keys[h]))
		if err != nil {
			return 0, nil, err
		}
		right.keys = append(right.keys, n.keys[h:]...)
		right.vals = append(right.vals, n.vals[h:]...)
		n.keys = n.keys[:h:h]
		n.vals = n.vals[:h:h]
		right.next = n.next
		n.next = right
		return sep, right, nil
	}
	// Interior: the middle key moves up.
	mid := n.keys[h]
	right.keys = append(right.keys, n.keys[h+1:]...)
	right.children = append(right.children, n.children[h+1:]...)
	n.keys = n.keys[:h:h]
	n.children = n.children[: h+1 : h+1]
	return mid, right, nil
}

// Compute applies f to the value in place under the write lock.
func (m *Map) Compute(key []byte, f func([]byte)) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.findLeaf(key)
	i, found := m.leafIndex(n, key)
	if !found {
		return false
	}
	f(m.alloc.Bytes(n.vals[i]))
	return true
}

// Remove deletes the mapping for key. Leaves may underflow (no
// rebalancing), like MapDB's lazy deletes.
func (m *Map) Remove(key []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.findLeaf(key)
	i, found := m.leafIndex(n, key)
	if !found {
		return false
	}
	m.alloc.Free(n.keys[i])
	m.alloc.Free(n.vals[i])
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	m.size--
	return true
}

// Ascend scans keys ≥ from in ascending order under the read lock.
func (m *Map) Ascend(from []byte, f func(key, val []byte) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n *node
	var i int
	if from == nil {
		n = m.root
		for !n.leaf {
			n = n.children[0]
		}
	} else {
		n = m.findLeaf(from)
		i, _ = m.leafIndex(n, from)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !f(m.keyBytes(n.keys[i]), m.alloc.Bytes(n.vals[i])) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Descend scans keys < to in descending order. Like MapDB (whose leaves
// are singly linked), each step is a fresh root-to-leaf descent.
func (m *Map) Descend(to []byte, f func(key, val []byte) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	bound := to
	for {
		k, v, ok := m.lowerLocked(bound)
		if !ok {
			return
		}
		kb := m.keyBytes(k)
		if !f(kb, m.alloc.Bytes(v)) {
			return
		}
		bound = append([]byte(nil), kb...)
	}
}

// lowerLocked finds the greatest key strictly below bound (nil = +inf).
func (m *Map) lowerLocked(bound []byte) (arena.Ref, arena.Ref, bool) {
	n := m.root
	if bound == nil {
		for !n.leaf {
			n = n.children[len(n.children)-1]
		}
		if len(n.keys) == 0 {
			return 0, 0, false
		}
		return n.keys[len(n.keys)-1], n.vals[len(n.keys)-1], true
	}
	// Descend tracking the best (rightmost < bound) candidate subtree.
	var bestLeaf *node
	bestIdx := -1
	for {
		if n.leaf {
			// Keys strictly below bound within this leaf.
			i, _ := m.leafIndex(n, bound)
			if i > 0 {
				bestLeaf, bestIdx = n, i-1
			}
			break
		}
		i := m.upperBound(n, bound)
		// All separators with index < i are < bound... not necessarily
		// useful; candidates live in children[0..i]. Descend into
		// children[i]; if it turns out empty below bound, fall back via
		// the leaf chain is impossible (singly linked), so remember the
		// rightmost key of the left sibling subtree instead.
		if i > 0 {
			// The subtree children[i-1] is entirely < bound: its maximum
			// is a valid fallback.
			c := n.children[i-1]
			for !c.leaf {
				c = c.children[len(c.children)-1]
			}
			if len(c.keys) > 0 {
				bestLeaf, bestIdx = c, len(c.keys)-1
			}
		}
		n = n.children[i]
	}
	if bestIdx < 0 {
		return 0, 0, false
	}
	return bestLeaf.keys[bestIdx], bestLeaf.vals[bestIdx], true
}
