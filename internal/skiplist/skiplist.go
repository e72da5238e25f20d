// Package skiplist provides a concurrent ordered map over []byte keys.
//
// It is the "SkipList-OnHeap" baseline of §5 — the stand-in for the JDK
// ConcurrentSkipListMap — and the substrate of the SkipList-OffHeap
// baseline and of the Druid legacy index. Like Java's map it keeps every
// key and value as an ordinary heap object, supports get/put/putIfAbsent/
// remove, a *non-atomic* merge/computeIfPresent, and implements
// descending iteration by issuing a fresh lookup per key (which is
// exactly the O(S·logN) behaviour Fig. 4f punishes). Oak's own chunk
// index is not a skiplist here (see internal/core's chunkIndex).
//
// The algorithm is the optimistic lazy skiplist of Herlihy & Shavit
// (ch. 14), with wait-free reads: traversals never lock; inserts and
// removes lock only the affected predecessors and validate before
// linking. Values are replaced with CAS, so pure value updates are
// lock-free.
package skiplist

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Comparator orders keys; it must behave like bytes.Compare.
type Comparator func(a, b []byte) int

const (
	maxLevel = 24 // supports billions of entries at p = 1/2
	pBits    = 1  // level promotion probability 1/2 (one bit per level)
)

type node[V any] struct {
	key         []byte
	val         atomic.Pointer[V]
	next        []atomic.Pointer[node[V]]
	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool
}

func (n *node[V]) topLevel() int { return len(n.next) - 1 }

// List is a concurrent ordered map from []byte keys to values of type V.
// The zero value is not usable; create instances with New.
type List[V any] struct {
	head *node[V] // sentinel; key == nil sorts below every key
	cmp  Comparator
	size atomic.Int64
}

// New creates an empty list ordered by cmp (nil means bytes.Compare).
func New[V any](cmp Comparator) *List[V] {
	if cmp == nil {
		cmp = bytes.Compare
	}
	h := &node[V]{next: make([]atomic.Pointer[node[V]], maxLevel+1)}
	h.fullyLinked.Store(true)
	return &List[V]{head: h, cmp: cmp}
}

// Len returns the number of live entries. Under concurrent updates the
// value is approximate, like Java's ConcurrentSkipListMap.size().
func (l *List[V]) Len() int { return int(l.size.Load()) }

func randomLevel() int {
	lvl := 0
	for lvl < maxLevel && rand.Uint64()&((1<<pBits)-1) == 0 {
		lvl++
	}
	return lvl
}

// find locates key, filling preds/succs per level. It returns the level
// at which a node with the key was found, or -1.
func (l *List[V]) find(key []byte, preds, succs *[maxLevel + 1]*node[V]) int {
	found := -1
	pred := l.head
	for lvl := maxLevel; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr != nil && l.cmp(curr.key, key) < 0 {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		if found < 0 && curr != nil && l.cmp(curr.key, key) == 0 {
			found = lvl
		}
		preds[lvl] = pred
		succs[lvl] = curr
	}
	return found
}

// findNode returns the live node holding key, or nil. Wait-free.
func (l *List[V]) findNode(key []byte) *node[V] {
	pred := l.head
	for lvl := maxLevel; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr != nil && l.cmp(curr.key, key) < 0 {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		if curr != nil && l.cmp(curr.key, key) == 0 {
			if curr.fullyLinked.Load() && !curr.marked.Load() {
				return curr
			}
			return nil
		}
	}
	return nil
}

// Get returns the value mapped to key.
func (l *List[V]) Get(key []byte) (V, bool) {
	if n := l.findNode(key); n != nil {
		return *n.val.Load(), true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (l *List[V]) Contains(key []byte) bool {
	return l.findNode(key) != nil
}

// Put maps key to v, returning the previous value if the key was present.
// The key slice is retained; callers must not mutate it afterwards.
func (l *List[V]) Put(key []byte, v V) (old V, replaced bool) {
	for {
		if n, inserted := l.insert(key, v); inserted {
			var zero V
			return zero, false
		} else if n != nil {
			oldp := n.val.Swap(&v)
			return *oldp, true
		}
		// Raced with a removal or a half-linked insert: retry.
	}
}

// PutIfAbsent inserts key→v if absent, reporting whether it inserted.
func (l *List[V]) PutIfAbsent(key []byte, v V) bool {
	for {
		n, inserted := l.insert(key, v)
		if inserted {
			return true
		}
		if n != nil {
			return false
		}
	}
}

// insert attempts to add key→v. Returns (nil, true) on insertion,
// (existing, false) if a live node holds the key, and (nil, false) if the
// operation must be retried.
func (l *List[V]) insert(key []byte, v V) (*node[V], bool) {
	var preds, succs [maxLevel + 1]*node[V]
	topLevel := randomLevel()
	for {
		found := l.find(key, &preds, &succs)
		if found >= 0 {
			n := succs[found]
			if n.marked.Load() {
				continue // being removed; retry the find
			}
			for !n.fullyLinked.Load() {
				if n.marked.Load() {
					break
				}
			}
			if n.marked.Load() {
				continue
			}
			return n, false
		}
		// Lock predecessors bottom-up and validate.
		var prevPred *node[V]
		valid := true
		highestLocked := -1
		for lvl := 0; valid && lvl <= topLevel; lvl++ {
			pred, succ := preds[lvl], succs[lvl]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = lvl
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[lvl].Load() == succ
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}
		n := &node[V]{key: key, next: make([]atomic.Pointer[node[V]], topLevel+1)}
		n.val.Store(&v)
		for lvl := 0; lvl <= topLevel; lvl++ {
			n.next[lvl].Store(succs[lvl])
		}
		for lvl := 0; lvl <= topLevel; lvl++ {
			preds[lvl].next[lvl].Store(n)
		}
		n.fullyLinked.Store(true)
		unlockPreds(&preds, highestLocked)
		l.size.Add(1)
		return nil, true
	}
}

func unlockPreds[V any](preds *[maxLevel + 1]*node[V], highest int) {
	var prev *node[V]
	for lvl := 0; lvl <= highest; lvl++ {
		if preds[lvl] != prev {
			preds[lvl].mu.Unlock()
			prev = preds[lvl]
		}
	}
}

// Remove deletes key, returning its value if it was present.
func (l *List[V]) Remove(key []byte) (V, bool) {
	var zero V
	var preds, succs [maxLevel + 1]*node[V]
	var victim *node[V]
	isMarked := false
	topLevel := -1
	for {
		found := l.find(key, &preds, &succs)
		if found >= 0 {
			victim = succs[found]
		}
		if !isMarked {
			if found < 0 || !victim.fullyLinked.Load() ||
				victim.marked.Load() || victim.topLevel() != found {
				return zero, false
			}
			topLevel = victim.topLevel()
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return zero, false
			}
			victim.marked.Store(true)
			isMarked = true
		}
		var prevPred *node[V]
		valid := true
		highestLocked := -1
		for lvl := 0; valid && lvl <= topLevel; lvl++ {
			pred := preds[lvl]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = lvl
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[lvl].Load() == victim
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}
		for lvl := topLevel; lvl >= 0; lvl-- {
			preds[lvl].next[lvl].Store(victim.next[lvl].Load())
		}
		old := *victim.val.Load()
		victim.mu.Unlock()
		unlockPreds(&preds, highestLocked)
		l.size.Add(-1)
		return old, true
	}
}

// ComputeIfPresent applies f to the current value of key and stores the
// result. Like Java's ConcurrentSkipListMap, this is NOT atomic in place:
// f may run multiple times under contention, and concurrent readers can
// observe the old value while f runs. Returns false if key is absent.
func (l *List[V]) ComputeIfPresent(key []byte, f func(V) V) bool {
	for {
		n := l.findNode(key)
		if n == nil {
			return false
		}
		oldp := n.val.Load()
		nv := f(*oldp)
		if n.val.CompareAndSwap(oldp, &nv) {
			return true
		}
		if n.marked.Load() {
			return false
		}
	}
}

// Merge is the Java-map merge used by the Fig. 4b baseline: if key is
// absent it inserts init, otherwise it remaps the existing value with f.
// Non-atomic in the same sense as ComputeIfPresent.
func (l *List[V]) Merge(key []byte, init V, f func(V) V) {
	for {
		if l.ComputeIfPresent(key, f) {
			return
		}
		if l.PutIfAbsent(key, init) {
			return
		}
	}
}
