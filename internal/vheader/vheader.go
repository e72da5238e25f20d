// Package vheader implements Oak's per-value headers (§3.3): a one-word
// read–write spinlock with an embedded deleted bit, used to make
// v.put, v.compute, v.remove and buffer reads atomic with respect to one
// another.
//
// In the paper the header occupies the first bytes of each value buffer
// and is manipulated with Unsafe atomics; headers are never reclaimed by
// the default memory manager, which both simplifies reclamation and rules
// out ABA on the remove path (§4.4). Here headers live in an append-only
// segmented table of uint64 words: the same lifetime discipline (a header
// index is never reused), the same one-word state machine, but with
// naturally aligned atomics and no unsafe. The addressing is inverted: a
// value span holds the value's bytes only, a chunk entry holds the header
// index, and the header's data word points to the span.
//
// Each header consists of three words, two of them (16 bytes) in the
// table's segments. The first is the lock word:
//
//	bit 63    deleted
//	bit 62    writer locked
//	bit 61    fresh: write-locked since allocation, not yet stamped
//	bits 0-60 reader count
//
// The second is the value's current data reference (a packed arena.Ref).
// The third is the MVCC version word — the write version stamped by the
// last mutation plus batch-state flags, packed by internal/core (this
// package only stores and loads it). Until a map's first snapshot or
// batch every write stamps InitialVersion, so the version words of a
// segment are materialised only when some other value is first stored
// into it: a map that never uses MVCC pays 16 bytes per header, not 24 —
// which matters because headers are never reclaimed.
// Keeping the data reference inside the header — readable only under the
// read lock, replaced only under the write lock — is what makes value
// resizing (§2.2: compute "extends the value's memory allocation if its
// code so requires") linearizable: a resize moves the bytes and swaps the
// data word without changing the value's identity (its header index), so
// chunk entries, rebalancers, and the remove's ABA-free entry clear all keep
// working unchanged.
package vheader

import (
	"runtime"
	"sync/atomic"
)

const (
	deletedBit = uint64(1) << 63
	writerBit  = uint64(1) << 62
	freshBit   = uint64(1) << 61
	readerMask = freshBit - 1
)

const (
	segmentBits = 16
	segmentSize = 1 << segmentBits // headers per segment
	maxSegments = 1 << 14          // ~1B headers per table
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

// Table is an append-only table of value headers. Index 0 is reserved so
// that "no header" can be expressed as 0 (the paper's ⊥ value reference).
type Table struct {
	segments [maxSegments]atomic.Pointer[segment]
	// versions[i] is nil while every header of segment i is at
	// InitialVersion.
	versions [maxSegments]atomic.Pointer[verSegment]
	next     atomic.Uint64
}

// NewTable creates an empty header table.
func NewTable() *Table {
	t := &Table{}
	t.next.Store(1) // reserve index 0
	return t
}

// Alloc returns a fresh header index in the live, unlocked state with a
// zero data reference. Headers are never reused, mirroring the paper's
// default reclamation policy ("refrains from reclaiming headers"), which
// makes the remove path ABA-free.
func (t *Table) Alloc() uint64 {
	idx := t.next.Add(1) - 1
	seg := idx >> segmentBits
	if t.segments[seg].Load() == nil {
		t.segments[seg].CompareAndSwap(nil, new(segment))
	}
	// Fresh segments are zeroed, so the header is already live/unlocked.
	return idx
}

// Count returns the number of headers allocated so far: every value ever
// created, since headers are never reused.
func (t *Table) Count() uint64 { return t.next.Load() - 1 }

func (t *Table) word(idx uint64) *atomic.Uint64 {
	return &t.segments[idx>>segmentBits].Load()[(idx&(segmentSize-1))*2]
}

func (t *Table) dataWord(idx uint64) *atomic.Uint64 {
	return &t.segments[idx>>segmentBits].Load()[(idx&(segmentSize-1))*2+1]
}

// LoadData returns the header's current data reference word. Callers that
// need a stable snapshot must hold the read or write lock.
func (t *Table) LoadData(idx uint64) uint64 { return t.dataWord(idx).Load() }

// StoreData replaces the header's data reference word. Callers must hold
// the write lock, except when initializing a freshly allocated header
// that is not yet published.
func (t *Table) StoreData(idx uint64, ref uint64) { t.dataWord(idx).Store(ref) }

// LoadVersion returns the header's version word. The word is opaque to
// this package: the MVCC layer packs a monotonically increasing write
// version plus batch-state flag bits into it. Writers store it under
// the write lock; readers load it under the read lock (or tolerate the
// race on unlocked probes — the word is a single atomic).
func (t *Table) LoadVersion(idx uint64) uint64 {
	vs := t.versions[idx>>segmentBits].Load()
	if vs == nil {
		return InitialVersion
	}
	return vs[idx&(segmentSize-1)].Load()
}

// StoreVersion replaces the header's version word. Callers must hold
// the write lock, except when initializing a freshly allocated header
// that is not yet published.
func (t *Table) StoreVersion(idx uint64, v uint64) {
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

// IsDeleted reports whether the header's deleted bit is set.
func (t *Table) IsDeleted(idx uint64) bool {
	return t.word(idx).Load()&deletedBit != 0
}

// LockFresh write-locks a freshly allocated, unpublished header and marks
// it fresh: its writer has yet to stamp it. IsLive waits while the mark
// is on; WriteUnlock and DeleteLocked clear it with the lock.
func (t *Table) LockFresh(idx uint64) {
	t.word(idx).Store(writerBit | freshBit)
}

// IsLive reports whether the header is not deleted, as a presence probe
// that takes no lock. Unlike IsDeleted it first waits out a fresh header
// (LockFresh until its unlock), so no probe reports a value present
// before its writer has stamped it. Only a fresh header waits, and its
// writer only stamps it (and records a batch install) before unlocking.
func (t *Table) IsLive(idx uint64) bool {
	h := t.word(idx).Load()
	if h&freshBit != 0 {
		h = t.waitStamped(idx)
	}
	return h&deletedBit == 0
}

// waitStamped is IsLive's slow path, out of line so the fast path
// inlines: it spins until idx is no longer fresh and returns its word.
func (t *Table) waitStamped(idx uint64) uint64 {
	w := t.word(idx)
	for spins := 0; ; spins++ {
		if h := w.Load(); h&freshBit == 0 {
			return h
		}
		backoff(spins)
	}
}

// TryReadLock acquires the header's read lock. It returns false iff the
// value is deleted; it spins while a writer holds the lock.
func (t *Table) TryReadLock(idx uint64) bool {
	w := t.word(idx)
	for spins := 0; ; spins++ {
		h := w.Load()
		if h&deletedBit != 0 {
			return false
		}
		if h&writerBit != 0 {
			backoff(spins)
			continue
		}
		if w.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// ReadUnlock releases a read lock previously acquired with TryReadLock.
func (t *Table) ReadUnlock(idx uint64) {
	t.word(idx).Add(^uint64(0)) // -1
}

// TryWriteLock acquires the header's write lock. It returns false iff the
// value is deleted; it spins while readers or another writer are present.
func (t *Table) TryWriteLock(idx uint64) bool {
	w := t.word(idx)
	for spins := 0; ; spins++ {
		h := w.Load()
		if h&deletedBit != 0 {
			return false
		}
		if h != 0 { // readers present or writer locked
			backoff(spins)
			continue
		}
		if w.CompareAndSwap(0, writerBit) {
			return true
		}
	}
}

// WriteUnlock releases the write lock.
func (t *Table) WriteUnlock(idx uint64) {
	t.word(idx).Store(0)
}

// TryDelete atomically transitions the header to deleted. It acquires the
// write lock internally, so it waits out concurrent readers and writers.
// It returns false iff the value was already deleted. This is the
// linearization point of a successful remove (§4.5).
func (t *Table) TryDelete(idx uint64) bool {
	if !t.TryWriteLock(idx) {
		return false
	}
	t.word(idx).Store(deletedBit)
	return true
}

// DeleteLocked transitions a write-locked header to deleted, releasing
// the lock. It lets a remover finish its work on the value — privatize
// the data reference, hand the pre-image to the MVCC layer — under the
// lock, before the deleted bit becomes visible to anyone.
func (t *Table) DeleteLocked(idx uint64) {
	t.word(idx).Store(deletedBit)
}

// backoff yields the processor with increasing insistence.
func backoff(spins int) {
	if spins > 16 {
		runtime.Gosched()
	}
}
