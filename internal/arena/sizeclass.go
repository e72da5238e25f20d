package arena

import (
	"math/bits"
	"sort"
	"sync"

	"oakmap/internal/telemetry"
)

// Size-class layout. Classes are powers of two from 8B (the alignment
// quantum) to 4KiB; a free span of length L < largeMin is parked on the
// class of its floor power of two, so every span in class c is at least
// classSize(c) bytes and a pop from any class ≥ ceilClass(r) is
// guaranteed to fit a request of r bytes without scanning. Spans of largeMin bytes or more live on a single
// address-ordered list that coalesces adjacent spans on insert — the
// only place coalescing is needed eagerly, because large spans are what
// rebalances and big-value churn produce and re-request.
const (
	minClassShift = 3  // 8 B
	maxClassShift = 12 // 4 KiB — largest segregated class
	numClasses    = maxClassShift - minClassShift + 1
	maxClassSize  = 1 << maxClassShift
	// largeMin is the smallest span length kept on the large list.
	largeMin = maxClassSize << 1
)

// classSize returns the lower-bound span length of class c.
func classSize(c int) int { return 1 << (minClassShift + c) }

// floorClass maps a span length in [8, largeMin) to the class that holds
// it: the largest class whose size does not exceed n.
func floorClass(n int) int {
	c := bits.Len(uint(n)) - 1 - minClassShift
	if c >= numClasses {
		c = numClasses - 1
	}
	return c
}

// ceilClass maps a request of rounded size n ≤ maxClassSize to the
// smallest class every span of which is guaranteed to fit it.
func ceilClass(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassShift
}

// classList is one size class's LIFO of free spans. Each class has its
// own lock, so concurrent Alloc/Free traffic in different classes never
// serializes; the trailing pad keeps neighboring classes on separate
// cache lines.
type classList struct {
	mu    sync.Mutex
	spans []span //oak:guarded-by mu
	bytes int64  //oak:guarded-by mu
	_     [24]byte
}

// setClassBit / clearClassBit maintain the occupancy bitmap consulted by
// classAlloc to skip empty classes without taking their locks. Both are
// called with the class's lock held, so the bit tracks emptiness
// exactly. (CAS loops rather than atomic Or/And: those methods postdate
// this module's go directive.)
func (a *Allocator) setClassBit(c int) {
	for {
		old := a.classBits.Load()
		if old&(1<<c) != 0 || a.classBits.CompareAndSwap(old, old|1<<c) {
			return
		}
	}
}

func (a *Allocator) clearClassBit(c int) {
	for {
		old := a.classBits.Load()
		if old&(1<<c) == 0 || a.classBits.CompareAndSwap(old, old&^(1<<c)) {
			return
		}
	}
}

// classPush parks a span of length in [8, largeMin) on its floor class.
func (a *Allocator) classPush(s span) {
	c := floorClass(s.length)
	cl := &a.classes[c]
	cl.mu.Lock()
	if a.closed.Load() {
		cl.mu.Unlock()
		return
	}
	cl.spans = append(cl.spans, s)
	cl.bytes += int64(s.length)
	if len(cl.spans) == 1 {
		a.setClassBit(c)
	}
	cl.mu.Unlock()
}

// reinsert routes a span (a free, a split remainder, or a migrated large
// tail) to its home structure.
func (a *Allocator) reinsert(s span) {
	if s.length >= largeMin {
		a.largeInsert(s)
	} else {
		a.classPush(s)
	}
}

// migrateSpan parks a span that is changing lists — a split remainder
// re-parked after a pop, or a large tail carved below largeMin — firing
// the fault point and the flight-recorder event that track free-list
// class migrations.
func (a *Allocator) migrateSpan(s span) {
	FpClassMigrate.Fire()
	a.tel.Load().Event(telemetry.EvClassMigrate, uint64(s.length), 0, 0)
	a.reinsert(s)
}

// classAlloc serves a request of rounded size ≤ maxClassSize from the
// segregated classes: pop from the smallest non-empty class that
// guarantees a fit, carve the head, and route the remainder back. The
// hot case (free span of the exact class) is one lock, one pop.
func (a *Allocator) classAlloc(n, rounded int) (Ref, bool) {
	start := ceilClass(rounded)
	for {
		avail := a.classBits.Load() &^ (uint32(1)<<start - 1)
		if avail == 0 {
			return NilRef, false
		}
		c := bits.TrailingZeros32(avail)
		cl := &a.classes[c]
		cl.mu.Lock()
		m := len(cl.spans)
		if m == 0 {
			// Raced with the pop that emptied the class; its bit is
			// already clear (or about to be) — retry on a fresh view.
			cl.mu.Unlock()
			continue
		}
		s := cl.spans[m-1]
		cl.spans = cl.spans[:m-1]
		cl.bytes -= int64(s.length)
		if m == 1 {
			a.clearClassBit(c)
		}
		cl.mu.Unlock()
		a.dbg.noteAlloc(s.block, s.offset, rounded)
		if rest := s.length - rounded; rest >= 8 {
			a.migrateSpan(span{block: s.block, offset: s.offset + rounded, length: rest})
		}
		return MakeRef(s.block, s.offset, n), true
	}
}

// spanBefore orders spans by address (block, then offset).
func spanBefore(x, y span) bool {
	if x.block != y.block {
		return x.block < y.block
	}
	return x.offset < y.offset
}

// largeInsert adds s (length ≥ largeMin) to the sorted large list,
// merging with an adjacent predecessor and/or successor — address-
// ordered coalescing, so fragmentation among large spans heals on free
// rather than waiting for compact.
func (a *Allocator) largeInsert(s span) {
	a.largeMu.Lock()
	defer a.largeMu.Unlock()
	if a.closed.Load() {
		return
	}
	i := sort.Search(len(a.large), func(i int) bool { return spanBefore(s, a.large[i]) })
	a.largeBytes += int64(s.length)
	if i > 0 {
		p := &a.large[i-1]
		if p.block == s.block && p.offset+p.length == s.offset {
			FpCoalesce.Fire()
			p.length += s.length
			if i < len(a.large) {
				n := a.large[i]
				if n.block == p.block && p.offset+p.length == n.offset {
					FpCoalesce.Fire()
					p.length += n.length
					a.large = append(a.large[:i], a.large[i+1:]...)
				}
			}
			return
		}
	}
	if i < len(a.large) {
		n := &a.large[i]
		if n.block == s.block && s.offset+s.length == n.offset {
			FpCoalesce.Fire()
			n.offset = s.offset
			n.length += s.length
			return
		}
	}
	a.large = append(a.large, span{})
	copy(a.large[i+1:], a.large[i:])
	a.large[i] = s
}

// largeAlloc serves a request from the large list, first-fit in address
// order (lowest-address span that fits — the policy that keeps high
// addresses free to coalesce). A span carved below largeMin migrates to
// a size class.
func (a *Allocator) largeAlloc(n, rounded int) (Ref, bool) {
	a.largeMu.Lock()
	if len(a.large) > 0 {
		FpFreeListScan.Fire()
	}
	for i := range a.large {
		s := a.large[i]
		if s.length < rounded {
			continue
		}
		rest := span{block: s.block, offset: s.offset + rounded, length: s.length - rounded}
		var migrate span
		if rest.length >= largeMin {
			a.large[i] = rest
			a.largeBytes -= int64(rounded)
		} else {
			a.large = append(a.large[:i], a.large[i+1:]...)
			a.largeBytes -= int64(s.length)
			if rest.length >= 8 {
				migrate = rest
			}
		}
		a.largeMu.Unlock()
		a.dbg.noteAlloc(s.block, s.offset, rounded)
		if migrate.length > 0 {
			// migrate.length < largeMin, so migrateSpan's reinsert is the
			// same classPush this site always performed.
			a.migrateSpan(migrate)
		}
		return MakeRef(s.block, s.offset, n), true
	}
	a.largeMu.Unlock()
	return NilRef, false
}

// classScan is the rescue path's first-fit scan of the floor class: a
// span whose length lies in [rounded, classSize(ceilClass)) is parked
// there, invisible to classAlloc's guaranteed-fit search, yet it may fit
// this exact request. O(class spans), taken only when bump allocation
// would otherwise grow a new block.
func (a *Allocator) classScan(n, rounded int) (Ref, bool) {
	if rounded >= largeMin {
		return NilRef, false
	}
	c := floorClass(rounded)
	cl := &a.classes[c]
	cl.mu.Lock()
	for i := range cl.spans {
		s := cl.spans[i]
		if s.length < rounded {
			continue
		}
		last := len(cl.spans) - 1
		cl.spans[i] = cl.spans[last]
		cl.spans = cl.spans[:last]
		cl.bytes -= int64(s.length)
		if last == 0 {
			a.clearClassBit(c)
		}
		cl.mu.Unlock()
		a.dbg.noteAlloc(s.block, s.offset, rounded)
		if rest := s.length - rounded; rest >= 8 {
			a.migrateSpan(span{block: s.block, offset: s.offset + rounded, length: rest})
		}
		return MakeRef(s.block, s.offset, n), true
	}
	cl.mu.Unlock()
	return NilRef, false
}

// rescueAlloc is the can't-bump slow path: scan the floor class for an
// exact fit, then coalesce everything and retry the classes — adjacent
// small fragments may assemble into a fitting span.
// Caller must not hold bumpMu (compact takes migrateMu).
func (a *Allocator) rescueAlloc(n, rounded int) (Ref, bool) {
	if ref, ok := a.classScan(n, rounded); ok {
		return ref, true
	}
	a.compact()
	if rounded <= maxClassSize {
		if ref, ok := a.classAlloc(n, rounded); ok {
			return ref, true
		}
	}
	if ref, ok := a.largeAlloc(n, rounded); ok {
		return ref, true
	}
	return a.classScan(n, rounded)
}

// drainAll removes every parked span from every structure and returns
// them appended to out. The spans are copied out and each list keeps its
// backing array, so the re-parking that follows a compact does not regrow
// them. The debug tracker is deliberately untouched: drained spans are
// still free, just privately held by the caller (compact, Close).
func (a *Allocator) drainAll(out []span) []span {
	for c := range a.classes {
		cl := &a.classes[c]
		cl.mu.Lock()
		out = append(out, cl.spans...)
		cl.spans = cl.spans[:0]
		cl.bytes = 0
		a.clearClassBit(c)
		cl.mu.Unlock()
	}
	a.largeMu.Lock()
	out = append(out, a.large...)
	a.large = a.large[:0]
	a.largeBytes = 0
	a.largeMu.Unlock()
	return out
}
