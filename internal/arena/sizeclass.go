package arena

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"oakmap/internal/freelist"
	"oakmap/internal/telemetry"
)

// Size-class layout. Every multiple of 8 up to smallMax is a class; above
// it each power of two is cut into 8 classes, up to largeMin. Alloc
// reserves the class size of a request (SpanLen), Free gives the span back
// to that same class, so a freed span serves the next request of its size
// with one CAS. Rounding costs less than 1/8 of a request above smallMax
// and nothing at or below it: the benchmark's 100 B keys take 104 B,
// rounded to 8, where 4 classes per power of two would take 112 B
// and add 8 B to every 228 B key+value entry. Spans of largeMin bytes or
// more live on a single address-ordered list that coalesces adjacent
// spans on insert and serves any size first-fit.
const (
	smallShift    = 7               // every multiple of 8 up to 1<<smallShift is a class
	largeShift    = 13              // spans from 1<<largeShift up live on the large list
	classesPerDbl = 8               // classes per power of two in between (their step: 2^k/8)
	smallMax      = 1 << smallShift // 128 B
	largeMin      = 1 << largeShift // 8 KiB, itself not a class
	numClasses    = smallMax/8 + classesPerDbl*(largeShift-smallShift) - 1
)

// SpanLen returns the bytes Alloc reserves for, and Free releases from, a
// request of n bytes: n rounded up to 8 (which keeps numeric fields
// aligned and leaves every free span room for its link), then up to its
// size class below largeMin.
func SpanLen(n int) int {
	n = (n + 7) &^ 7
	if n <= smallMax || n >= largeMin {
		return n
	}
	step := 1 << (bits.Len(uint(n-1)) - 4) // n in (2^k, 2^(k+1)]: step 2^k/8
	return (n + step - 1) &^ (step - 1)
}

// classOf returns the class of a class size below largeMin.
func classOf(size int) int {
	if size <= smallMax {
		return size/8 - 1
	}
	k := bits.Len(uint(size-1)) - 1 // size in (2^k, 2^(k+1)]
	return smallMax/8 + (k-smallShift)*classesPerDbl + (size-1<<k)>>(k-3) - 1
}

// classSize returns the span length of class c.
func classSize(c int) int {
	if c < smallMax/8 {
		return 8 * (c + 1)
	}
	c -= smallMax / 8
	base := smallMax << (c / classesPerDbl)
	return base + (c%classesPerDbl+1)*(base/classesPerDbl)
}

// pieceLen returns the largest class size not above n, a multiple of 8
// below largeMin: the first piece park cuts from a span of n bytes.
func pieceLen(n int) int {
	if n <= smallMax {
		return n
	}
	step := 1 << (bits.Len(uint(n)) - 4) // n in [2^k, 2^(k+1)): step 2^k/8
	return n &^ (step - 1)
}

// A free span in a class list is named by its locator, (block+1)<<24 |
// offset/8: 34 bits, nonzero, the free list's element index.
const locOffBits = offsetBits - 3

func locator(block, offset int) uint64 {
	return uint64(block+1)<<locOffBits | uint64(offset>>3)
}

func unlocate(loc uint64) (block, offset int) {
	return int(loc>>locOffBits) - 1, int(loc&(1<<locOffBits-1)) << 3
}

// spanLinks links the free spans of a class through their first 8 bytes.
type spanLinks struct{ a *Allocator }

func (l spanLinks) Link(loc uint64) uint64 {
	b, off := unlocate(loc)
	return loadLink(l.a.blocks[b].Load().buf, off)
}

func (l spanLinks) SetLink(loc, next uint64) {
	b, off := unlocate(loc)
	storeLink(l.a.blocks[b].Load().buf, off, next)
}

// loadLink and storeLink read and write a free span's link word. A pop
// loads the link of the span it saw at a stripe's head, and that span may
// meanwhile have been popped by another goroutine whose new owner is
// writing it: a read racing a write. The pop's tagged CAS then fails and
// discards what it read, and blocks stay in the table until Close, so the
// race is benign; but under -race, where blocks are Go-heap slices, the
// detector would report it. The two accessors are therefore left
// uninstrumented; every other access to block bytes stays instrumented.
//
//go:norace
func loadLink(buf []byte, off int) uint64 { return binary.LittleEndian.Uint64(buf[off:]) }

//go:norace
func storeLink(buf []byte, off int, next uint64) { binary.LittleEndian.PutUint64(buf[off:], next) }

// classPop serves a request of class size size < largeMin from its own
// class with one CAS.
func (a *Allocator) classPop(n, size int) (Ref, bool) {
	loc, ok := a.classes[classOf(size)].Pop(spanLinks{a})
	if !ok {
		return NilRef, false
	}
	b, off := unlocate(loc)
	a.dbg.noteAlloc(b, off, size)
	return MakeRef(b, off, n), true
}

// classPush puts a free span whose length is a class size on its class.
func (a *Allocator) classPush(s span) {
	loc := locator(s.block, s.offset)
	a.classes[classOf(s.length)].Push(spanLinks{a}, loc, loc, 1)
}

// park places a free span that Alloc did not hand out as one piece — a
// large-list carve remainder, a block tail, compact's output — and
// returns the number of pieces it parked. A span of largeMin bytes or
// more goes to the large list whole; a shorter one is cut greedily into
// class-sized pieces, always exactly, because 8 B is a class and every
// free span's length is a multiple of 8 (growLocked drops a block's
// unaligned last bytes).
func (a *Allocator) park(s span) int {
	FpClassMigrate.Fire()
	a.tel.Load().Event(telemetry.EvClassMigrate, uint64(s.length), 0, 0)
	if s.length >= largeMin {
		a.largeInsert(s)
		return 1
	}
	pieces := 0
	for s.length > 0 {
		p := span{block: s.block, offset: s.offset, length: pieceLen(s.length)}
		a.classPush(p)
		s.offset += p.length
		s.length -= p.length
		pieces++
	}
	return pieces
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
// addresses free to coalesce), and parks the remainder.
func (a *Allocator) largeAlloc(n, size int) (Ref, bool) {
	a.largeMu.Lock()
	if len(a.large) > 0 {
		FpFreeListScan.Fire()
	}
	for i, s := range a.large {
		if s.length < size {
			continue
		}
		a.large = append(a.large[:i], a.large[i+1:]...)
		a.largeBytes -= int64(s.length)
		a.largeMu.Unlock()
		a.dbg.noteAlloc(s.block, s.offset, size)
		if s.length > size {
			a.park(span{block: s.block, offset: s.offset + size, length: s.length - size})
		}
		return MakeRef(s.block, s.offset, n), true
	}
	a.largeMu.Unlock()
	return NilRef, false
}

// drainAll removes every parked span from every structure and returns
// them appended to out; the large list keeps its backing array, so the
// re-parking that follows a compact does not regrow it. The debug tracker
// is deliberately untouched: drained spans are still free, just privately
// held by the caller (compact, Close).
func (a *Allocator) drainAll(out []span) []span {
	links := spanLinks{a}
	for c := range a.classes {
		size := classSize(c)
		for j := 0; j < freelist.Stripes; j++ {
			for loc := a.classes[c].TakeAll(links, j); loc != 0; loc = links.Link(loc) {
				b, off := unlocate(loc)
				out = append(out, span{block: b, offset: off, length: size})
			}
		}
	}
	a.largeMu.Lock()
	out = append(out, a.large...)
	a.large = a.large[:0]
	a.largeBytes = 0
	a.largeMu.Unlock()
	return out
}
