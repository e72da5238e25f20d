// Package freelist is a lock-free free list of fixed-size elements, the
// one primitive behind value-header slot recycling (internal/vheader) and
// every size class of the off-heap arena (internal/arena). Blelloch and
// Wei's constant-time fixed-size allocation is the model: a freed element
// serves the next request of its size with one CAS.
//
// A List does not own its elements. They are named by nonzero indexes
// below 2^34, and the owner keeps each free element's link (the index of
// the next free element, 0 at the end) wherever it likes, reading and
// writing it through a Links value: a header slot's data word, a free
// span's first 8 bytes.
//
// The list is split into Stripes cache-line-padded stripes, each a
// Treiber stack. A stripe's head packs the first free index with a count
// of the removals the stripe has served:
//
//	bits 34-63  removal count (wraps mod 2^30)
//	bits 0-33   first free index (0 = empty)
//
// Every pop and every take-all advances the count, so a pop whose CAS
// was delayed past another pop and a push of the same element sees a
// different head word and retries: the link it read may be stale (the
// element's new owner may have overwritten it), and the CAS rejects it.
// Pushes leave the count alone; a push changes the index, and the head
// can only come back to an earlier word through a removal. A stale CAS
// succeeds only if exactly 2^30 removals of one stripe fall between its
// load and its CAS.
//
// A one-word bitmap marks the stripes that may hold elements, so a Pop
// finds an empty list with one load.
package freelist

import (
	"math/rand/v2"
	"sync/atomic"
)

// Stripes is the number of stripes of a List.
const Stripes = 8

const (
	// indexBits is the width of an element index.
	indexBits = 34
	idxMask   = uint64(1)<<indexBits - 1
	tagOne    = uint64(1) << indexBits
	tagMask   = ^uint64(0) >> indexBits // removal counts wrap mod 2^30
)

// Links reads and writes a free element's link word. Implementations are
// small value types (a pointer to the owner), so List's methods call them
// without boxing.
//
// Link may be called on an element another goroutine has just popped and
// is overwriting; whatever it returns then is discarded by the CAS that
// follows, so it must not fault on such an element.
type Links interface {
	Link(idx uint64) uint64
	SetLink(idx, next uint64)
}

// stripe is one Treiber stack. pushed counts the elements ever pushed
// (less those a take-all removed beyond its one count); pushed minus the
// head's removal count is the stripe's length. The padding keeps stripes
// on separate cache lines.
type stripe struct {
	head   atomic.Uint64
	pushed atomic.Uint64
	_      [48]byte
}

// List is a striped lock-free free list. The zero value is an empty list.
// All methods are safe for concurrent use.
type List[L Links] struct {
	// avail has bit j set while stripe j may hold elements. A stripe is
	// never non-empty with its bit clear once its pushes and pops have
	// returned: a push sets the bit after its CAS, and a removal that
	// empties a stripe clears it, then sets it again if the stripe
	// refilled meanwhile.
	avail   atomic.Uint32
	_       [60]byte
	stripes [Stripes]stripe
}

// Pop removes and returns a free element, or reports false if every
// stripe is empty. It starts at a random stripe, so concurrent callers
// spread over them.
func (l *List[L]) Pop(links L) (uint64, bool) {
	if l.avail.Load() == 0 {
		return 0, false
	}
	s := rand.Uint32()
	for i := uint32(0); i < Stripes; i++ {
		j := (s + i) % Stripes
		if l.avail.Load()&(1<<j) != 0 {
			if idx, ok := l.pop(links, j); ok {
				return idx, true
			}
		}
	}
	return 0, false
}

// pop takes the first element of stripe j, if any.
func (l *List[L]) pop(links L, j uint32) (uint64, bool) {
	s := &l.stripes[j]
	for {
		old := s.head.Load()
		idx := old & idxMask
		if idx == 0 {
			l.emptied(j)
			return 0, false
		}
		next := links.Link(idx)
		if s.head.CompareAndSwap(old, old&^idxMask+tagOne|next&idxMask) {
			if next == 0 {
				l.emptied(j)
			}
			return idx, true
		}
	}
}

// Push adds the run of n elements from first to last, which the caller
// has already linked first → … → last, to one stripe with one CAS. The
// stripe is chosen at random, so concurrent callers spread over them.
func (l *List[L]) Push(links L, first, last uint64, n int) {
	l.push(links, rand.Uint32()%Stripes, first, last, n)
}

// push adds a linked run to stripe j.
func (l *List[L]) push(links L, j uint32, first, last uint64, n int) {
	s := &l.stripes[j]
	s.pushed.Add(uint64(n)) // before the CAS: Count never reads a pop of an uncounted push
	for {
		old := s.head.Load()
		links.SetLink(last, old&idxMask)
		if s.head.CompareAndSwap(old, old&^idxMask|first) {
			break
		}
	}
	l.setAvail(j, true)
}

// TakeAll empties stripe j with one swap and returns its former first
// element (0 if it was empty); the caller walks the run through its links
// to 0. The run is the caller's alone.
func (l *List[L]) TakeAll(links L, j int) uint64 {
	s := &l.stripes[j]
	for {
		old := s.head.Load()
		first := old & idxMask
		if first == 0 {
			return 0
		}
		if !s.head.CompareAndSwap(old, old&^idxMask+tagOne) {
			continue
		}
		l.emptied(uint32(j))
		// The swap counted one removal; count the rest of the run.
		n := uint64(0)
		for idx := links.Link(first); idx != 0; idx = links.Link(idx) {
			n++
		}
		s.pushed.Add(-n)
		return first
	}
}

// Count returns the number of elements on the list. Exact when no push
// or removal runs concurrently.
func (l *List[L]) Count() uint64 {
	var n uint64
	for i := range l.stripes {
		s := &l.stripes[i]
		removed := s.head.Load() >> indexBits // before pushed: Push adds to pushed first
		n += (s.pushed.Load() - removed) & tagMask
	}
	return n
}

// emptied clears stripe j's avail bit, then sets it again if a push
// refilled the stripe meanwhile.
func (l *List[L]) emptied(j uint32) {
	l.setAvail(j, false)
	if l.stripes[j].head.Load()&idxMask != 0 {
		l.setAvail(j, true)
	}
}

// setAvail sets or clears stripe j's avail bit. (A CAS loop: the
// atomic Or/And methods postdate this module's go directive.)
func (l *List[L]) setAvail(j uint32, set bool) {
	for {
		old := l.avail.Load()
		nw := old &^ (1 << j)
		if set {
			nw = old | 1<<j
		}
		if old == nw || l.avail.CompareAndSwap(old, nw) {
			return
		}
	}
}
