// Package vheader implements Oak's per-value headers (§3.3): a one-word
// read–write spinlock with an embedded deleted bit, used to make
// v.put, v.compute, v.remove and buffer reads atomic with respect to one
// another.
//
// In the paper the header occupies the first bytes of each value buffer
// and is manipulated with Unsafe atomics; its default memory manager
// never reclaims headers, which rules out ABA on the remove path, and it
// leaves reclaiming them with generations as future work (§4.4). Here
// headers live in a segmented table of uint64 words, with naturally
// aligned atomics and no unsafe, and their slots are recycled behind
// generation-tagged handles. The addressing is inverted: a value span
// holds the value's bytes only, a chunk entry holds the header's handle,
// and the header's data word points to the span.
//
// A handle packs a slot index and the slot's generation into one word:
//
//	bits 32-60  generation
//	bits 0-31   slot index (below 2^30; index 0 is reserved for ⊥)
//
// Each header consists of three words, two of them (16 bytes) in the
// table's segments. The first is the lock word; its generation field sits
// at the handle's bit positions, so every check that loads the word
// validates the handle with the same load:
//
//	bit 63      deleted
//	bit 62      writer locked
//	bit 61      fresh: write-locked since allocation, not yet stamped
//	bits 32-60  generation
//	bits 0-31   reader count
//
// A handle whose generation differs from its slot's is stale, and reads
// exactly as a deleted handle does: TryReadLock and TryWriteLock fail,
// IsDeleted reports true, IsLive false.
//
// The second word is the value's current data reference (a packed
// arena.Ref); while a slot is free it links the slot to the next free
// one. The third is the MVCC version word — the write version stamped by
// the last mutation plus batch-state flags, packed by internal/core (this
// package only stores and loads it). Until a map's first snapshot or
// batch every write stamps InitialVersion, so the version words of a
// segment are materialised only when some other value is first stored
// into it: a map that never uses MVCC pays 16 bytes per header, not 24.
// A recycled slot keeps its previous occupant's version word until its
// new writer stamps it, which it does before it unlocks the fresh header.
//
// Recycling. The owner retires a header once no chunk entry references
// it any more and hands it to Free after an epoch grace period, when no
// reader that could have loaded the handle is still pinned. Free
// advances the slot's generation (a CAS from the deleted, unlocked state,
// which panics on a double free) and pushes the slot onto a striped
// lock-free free list (internal/freelist), linked through the free
// slots' data words; Alloc pops from it before it grows the table. Every
// view that holds a handle across an unpin therefore meets either the
// deleted header or a newer generation. A stale handle could alias a
// later occupant only after 2^29 reuses of its slot, each of which takes
// a full epoch grace period, an insert and a remove. Slot indexes stay
// below 2^30, inside the free list's 34-bit index field, and its 30-bit
// removal tags make a delayed pop's CAS fail unless exactly 2^30 pops of
// one stripe fell inside its window.
//
// Keeping the data reference inside the header — readable only under the
// read lock, replaced only under the write lock — is what makes value
// resizing (§2.2: compute "extends the value's memory allocation if its
// code so requires") linearizable: a resize moves the bytes and swaps the
// data word without changing the value's identity (its handle), so chunk
// entries, rebalancers, and the remove's entry clear all keep working
// unchanged.
package vheader

import (
	"runtime"
	"sync/atomic"

	"oakmap/internal/freelist"
)

const (
	deletedBit = uint64(1) << 63
	writerBit  = uint64(1) << 62
	freshBit   = uint64(1) << 61
	genShift   = 32
	genOne     = uint64(1) << genShift
	genMask    = freshBit - genOne // bits 32-60
	idxMask    = genOne - 1
)

const (
	segmentBits = 16
	segmentSize = 1 << segmentBits // headers per segment
	maxSegments = 1 << 14          // 2^30 headers per table
)

// InitialVersion is what LoadVersion returns for a header whose version
// was never stored, and the value a version clock must start at for the
// version words to stay unmaterialised.
const InitialVersion = 1

// segment holds the lock and data words of segmentSize headers;
// verSegment their version words.
type (
	segment    [2 * segmentSize]atomic.Uint64
	verSegment [segmentSize]atomic.Uint64
)

// Table is a table of value headers whose slots are recycled. Index 0 is
// reserved so that "no header" can be expressed as 0 (the paper's ⊥
// value reference).
type Table struct {
	segments [maxSegments]atomic.Pointer[segment]
	// versions[i] is nil while every header of segment i is at
	// InitialVersion.
	versions [maxSegments]atomic.Pointer[verSegment]
	next     atomic.Uint64 // the next never-used slot index
	_        [56]byte
	// free holds the freed slots, linked through their data words.
	free freelist.List[slotLinks]
}

// slotLinks links free slots through their data words.
type slotLinks struct{ t *Table }

func (l slotLinks) Link(idx uint64) uint64   { return l.t.dataWord(idx).Load() }
func (l slotLinks) SetLink(idx, next uint64) { l.t.dataWord(idx).Store(next) }

// NewTable creates an empty header table.
func NewTable() *Table {
	t := &Table{}
	t.next.Store(1) // reserve index 0
	return t
}

// Alloc returns a header in the live, unlocked state with a zero data
// reference: a freed slot if the free list holds one, revived at the
// generation Free gave it, else a never-used one. Either way the fast
// path is one atomic read-modify-write.
func (t *Table) Alloc() uint64 {
	if idx, ok := t.free.Pop(slotLinks{t}); ok {
		h := t.word(idx).Load()&genMask | idx
		t.dataWord(idx).Store(0)
		t.word(idx).Store(h & genMask) // live, unlocked
		return h
	}
	idx := t.next.Add(1) - 1
	seg := idx >> segmentBits
	if t.segments[seg].Load() == nil {
		t.segments[seg].CompareAndSwap(nil, new(segment))
	}
	// Fresh segments are zeroed, so the header is already live/unlocked
	// at generation 0.
	return idx
}

// Free hands retired headers back to Alloc. Each must be deleted and
// unlocked, with no chunk entry referencing it and no reader left that
// could have loaded its handle before it was unlinked (in Oak: an epoch
// grace period has elapsed since its retire). Free advances each slot's
// generation, so every outstanding copy of the handle goes stale, and
// panics if a header is not in that state — a double free included.
func (t *Table) Free(hs []uint64) {
	for _, h := range hs {
		gen := h & genMask
		if !t.word(h).CompareAndSwap(gen|deletedBit, (gen+genOne)&genMask|deletedBit) {
			panic("vheader: Free of a header that is live, locked or already freed")
		}
	}
	// Push the batch as up to freelist.Stripes linked runs, one CAS each.
	per := (len(hs) + freelist.Stripes - 1) / freelist.Stripes
	for lo := 0; lo < len(hs); lo += per {
		run := hs[lo:min(lo+per, len(hs))]
		for i := 0; i+1 < len(run); i++ {
			t.dataWord(run[i]).Store(run[i+1] & idxMask)
		}
		t.free.Push(slotLinks{t}, run[0]&idxMask, run[len(run)-1]&idxMask, len(run))
	}
}

// Count returns the number of headers in use: allocated and not yet
// handed back by Free. Exact when no Alloc or Free runs concurrently.
func (t *Table) Count() uint64 {
	used := int64(t.next.Load()-1) - int64(t.free.Count())
	return uint64(max(used, 0))
}

func (t *Table) word(h uint64) *atomic.Uint64 {
	idx := h & idxMask
	return &t.segments[idx>>segmentBits].Load()[(idx&(segmentSize-1))*2]
}

func (t *Table) dataWord(h uint64) *atomic.Uint64 {
	idx := h & idxMask
	return &t.segments[idx>>segmentBits].Load()[(idx&(segmentSize-1))*2+1]
}

// LoadData returns the header's current data reference word. Callers that
// need a stable snapshot must hold the read or write lock.
func (t *Table) LoadData(h uint64) uint64 { return t.dataWord(h).Load() }

// StoreData replaces the header's data reference word. Callers must hold
// the write lock, except when initializing a freshly allocated header
// that is not yet published.
func (t *Table) StoreData(h uint64, ref uint64) { t.dataWord(h).Store(ref) }

// LoadVersion returns the header's version word. The word is opaque to
// this package: the MVCC layer packs a monotonically increasing write
// version plus batch-state flag bits into it. Writers store it under
// the write lock; readers load it under the read lock (or tolerate the
// race on unlocked probes — the word is a single atomic).
func (t *Table) LoadVersion(h uint64) uint64 {
	idx := h & idxMask
	vs := t.versions[idx>>segmentBits].Load()
	if vs == nil {
		return InitialVersion
	}
	return vs[idx&(segmentSize-1)].Load()
}

// StoreVersion replaces the header's version word. Callers must hold
// the write lock, except when initializing a freshly allocated header
// that is not yet published.
func (t *Table) StoreVersion(h uint64, v uint64) {
	idx := h & idxMask
	slot := &t.versions[idx>>segmentBits]
	vs := slot.Load()
	if vs == nil {
		if v == InitialVersion {
			return
		}
		// Materialise the segment's version words at the value they all
		// read as so far; a racing materialiser's copy is equivalent.
		vs = new(verSegment)
		for i := range vs {
			vs[i].Store(InitialVersion)
		}
		if !slot.CompareAndSwap(nil, vs) {
			vs = slot.Load()
		}
	}
	vs[idx&(segmentSize-1)].Store(v)
}

// IsDeleted reports whether the header's deleted bit is set or the
// handle is stale.
func (t *Table) IsDeleted(h uint64) bool {
	return t.word(h).Load()&(deletedBit|genMask) != h&genMask
}

// LockFresh write-locks a freshly allocated, unpublished header and marks
// it fresh: its writer has yet to stamp it. IsLive waits while the mark
// is on; WriteUnlock and DeleteLocked clear it with the lock.
func (t *Table) LockFresh(h uint64) {
	t.word(h).Store(h&genMask | writerBit | freshBit)
}

// IsLive reports whether the header is neither deleted nor stale, as a
// presence probe that takes no lock. Unlike IsDeleted it first waits out
// a fresh header (LockFresh until its unlock), so no probe reports a
// value present before its writer has stamped it. Only a fresh header
// waits, and its writer only stamps it (and records a batch install)
// before unlocking.
func (t *Table) IsLive(h uint64) bool {
	if t.word(h).Load()&(deletedBit|genMask|freshBit) == h&genMask {
		return true
	}
	return t.waitStamped(h)
}

// waitStamped is IsLive's slow path: it spins while h's slot is fresh
// under h's generation, then reports whether h is live.
func (t *Table) waitStamped(h uint64) bool {
	w := t.word(h)
	for spins := 0; ; spins++ {
		x := w.Load()
		if x&(deletedBit|genMask) != h&genMask {
			return false
		}
		if x&freshBit == 0 {
			return true
		}
		backoff(spins)
	}
}

// TryReadLock acquires the header's read lock. It returns false iff the
// value is deleted or the handle stale; it spins while a writer holds the
// lock.
func (t *Table) TryReadLock(h uint64) bool {
	w := t.word(h)
	gen := h & genMask
	for spins := 0; ; spins++ {
		x := w.Load()
		if x&(deletedBit|genMask) != gen {
			return false
		}
		if x&writerBit != 0 {
			backoff(spins)
			continue
		}
		if w.CompareAndSwap(x, x+1) {
			return true
		}
	}
}

// ReadUnlock releases a read lock previously acquired with TryReadLock.
func (t *Table) ReadUnlock(h uint64) {
	t.word(h).Add(^uint64(0)) // -1
}

// TryWriteLock acquires the header's write lock. It returns false iff the
// value is deleted or the handle stale; it spins while readers or another
// writer are present.
func (t *Table) TryWriteLock(h uint64) bool {
	w := t.word(h)
	gen := h & genMask
	for spins := 0; ; spins++ {
		x := w.Load()
		if x&(deletedBit|genMask) != gen {
			return false
		}
		if x != gen { // readers present or writer locked
			backoff(spins)
			continue
		}
		if w.CompareAndSwap(gen, gen|writerBit) {
			return true
		}
	}
}

// WriteUnlock releases the write lock.
func (t *Table) WriteUnlock(h uint64) {
	t.word(h).Store(h & genMask)
}

// TryDelete atomically transitions the header to deleted. It acquires the
// write lock internally, so it waits out concurrent readers and writers.
// It returns false iff the value was already deleted. This is the
// linearization point of a successful remove (§4.5).
func (t *Table) TryDelete(h uint64) bool {
	if !t.TryWriteLock(h) {
		return false
	}
	t.DeleteLocked(h)
	return true
}

// DeleteLocked transitions a write-locked header to deleted, releasing
// the lock. It lets a remover finish its work on the value — privatize
// the data reference, hand the pre-image to the MVCC layer — under the
// lock, before the deleted bit becomes visible to anyone.
func (t *Table) DeleteLocked(h uint64) {
	t.word(h).Store(h&genMask | deletedBit)
}

// backoff yields the processor with increasing insistence.
func backoff(spins int) {
	if spins > 16 {
		runtime.Gosched()
	}
}
