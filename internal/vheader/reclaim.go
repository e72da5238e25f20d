package vheader

import (
	"sync/atomic"

	"oakmap/internal/telemetry"
)

// HeaderTable abstracts the two header-lifetime policies:
//
//   - Table: the paper's default — headers are never reclaimed, which
//     makes remove trivially ABA-free at the cost of 16B per ever-
//     inserted value (24B once MVCC versions are in use).
//   - ReclaimingTable: the paper's extension ("a more elaborate solution
//     that uses generations (epochs) in order to reclaim headers as
//     well; this mechanism is beyond the scope of the current paper"),
//     implemented here: header slots carry a generation counter and are
//     recycled through a free list once released.
type HeaderTable interface {
	// Alloc returns a fresh live handle with a zero data word.
	Alloc() uint64
	// Release recycles the (deleted) value's header slot; it is
	// idempotent and a no-op for non-reclaiming tables.
	Release(h uint64)
	IsDeleted(h uint64) bool
	TryReadLock(h uint64) bool
	ReadUnlock(h uint64)
	TryWriteLock(h uint64) bool
	WriteUnlock(h uint64)
	TryDelete(h uint64) bool
	// DeleteLocked marks a write-locked header deleted (releasing the
	// lock); the caller must hold the write lock via TryWriteLock.
	DeleteLocked(h uint64)
	LoadData(h uint64) uint64
	StoreData(h uint64, ref uint64)
	// LoadVersion/StoreVersion access the header's MVCC version word
	// (write version + batch flags, packed by the core layer). Stores
	// require the write lock or an unpublished header; a recycled slot
	// starts over at version 0.
	LoadVersion(h uint64) uint64
	StoreVersion(h uint64, v uint64)
	// Count returns the number of header slots ever materialized.
	Count() uint64
}

// Release implements HeaderTable for the default table: a no-op, per the
// paper's default reclamation policy.
func (t *Table) Release(uint64) {}

var _ HeaderTable = (*Table)(nil)
var _ HeaderTable = (*ReclaimingTable)(nil)

// Handle layout for ReclaimingTable: slot index in the low 40 bits,
// generation in the high 24. A slot's generation increments on every
// release, so a stale handle (one observed before the slot was recycled)
// fails every operation. Generations wrap after 2^24 reuses of one slot;
// an ABA would additionally require a 2^24-reuse cycle between a
// handle's load and its CAS, which the surrounding algorithm's retry
// structure makes unreachable in practice.
const (
	slotBits = 40
	slotMask = 1<<slotBits - 1
)

func handleOf(slot, gen uint64) uint64 { return gen<<slotBits | slot }
func slotOf(h uint64) uint64           { return h & slotMask }
func genOf(h uint64) uint64            { return h >> slotBits }

// rslot words: [0] lock/deleted, [1] data ref, [2] generation,
// [3] MVCC version.
type rsegment [4 * segmentSize]atomic.Uint64

// ReclaimingTable is a header table whose slots are recycled with
// generation validation. All operations on stale handles fail exactly
// like operations on deleted values.
//
// Recycled slots are kept on a lock-free Treiber stack threaded through
// the data words of the free slots themselves (a free slot has no data,
// and stale handles are fenced off by generation validation before any
// data read), so Release and the recycled-slot Alloc path are a few CAS
// operations with no mutex — Oak's delete-heavy workloads hit both from
// every worker.
type ReclaimingTable struct {
	segments [maxSegments]atomic.Pointer[rsegment]
	next     atomic.Uint64

	// freeHead packs the free stack's top slot index in the low slotBits
	// and a version counter above it; every successful CAS bumps the
	// version, so a head observed before an intervening pop/push cannot
	// be reinstalled (the classic Treiber ABA). The version wraps after
	// 2^24 operations; an ABA would additionally require the head slot
	// and its next link to repeat at exactly that distance, unreachable
	// under the surrounding retry structure.
	freeHead atomic.Uint64

	// Observability counters, sharded: every worker on a delete-heavy
	// workload bumps them (Release on every remove, the reuse branch on
	// every recycled Alloc), so single atomic words would be the table's
	// only all-threads shared write traffic besides the free stack
	// itself.
	released telemetry.Counter // successful releases
	reused   telemetry.Counter // allocations served from the free list
}

// headWith installs slot as the new top, bumping the version.
func headWith(old, slot uint64) uint64 {
	return (old>>slotBits+1)<<slotBits | slot
}

// NewReclaimingTable creates an empty reclaiming header table.
func NewReclaimingTable() *ReclaimingTable {
	t := &ReclaimingTable{}
	t.next.Store(1) // reserve slot 0 for ⊥
	return t
}

func (t *ReclaimingTable) words(slot uint64) *rsegment {
	return t.segments[slot>>segmentBits].Load()
}

func (t *ReclaimingTable) lockWord(slot uint64) *atomic.Uint64 {
	return &t.words(slot)[(slot&(segmentSize-1))*4]
}
func (t *ReclaimingTable) dataWord(slot uint64) *atomic.Uint64 {
	return &t.words(slot)[(slot&(segmentSize-1))*4+1]
}
func (t *ReclaimingTable) genWord(slot uint64) *atomic.Uint64 {
	return &t.words(slot)[(slot&(segmentSize-1))*4+2]
}
func (t *ReclaimingTable) verWord(slot uint64) *atomic.Uint64 {
	return &t.words(slot)[(slot&(segmentSize-1))*4+3]
}

// Alloc implements HeaderTable, preferring recycled slots.
func (t *ReclaimingTable) Alloc() uint64 {
	for {
		h := t.freeHead.Load()
		slot := h & slotMask
		if slot == 0 {
			break // stack empty: materialize a fresh slot
		}
		// The next link lives in the free slot's data word. If the slot
		// is popped and recycled between the loads, the value read here
		// is garbage — and the version bump makes the CAS fail.
		next := t.dataWord(slot).Load() & slotMask
		if t.freeHead.CompareAndSwap(h, headWith(h, next)) {
			t.reused.Inc()
			gen := t.genWord(slot).Load()
			t.dataWord(slot).Store(0)
			// A recycled slot starts a fresh value: its version word must
			// not leak the previous occupant's stamp (a stale high version
			// would hide the new value from snapshots that should see it).
			t.verWord(slot).Store(0)
			// Making the lock word live publishes the recycled slot;
			// stale handles are fenced off by the already-incremented
			// generation.
			t.lockWord(slot).Store(0)
			return handleOf(slot, gen)
		}
	}
	slot := t.next.Add(1) - 1
	seg := slot >> segmentBits
	if t.segments[seg].Load() == nil {
		t.segments[seg].CompareAndSwap(nil, new(rsegment))
	}
	return handleOf(slot, 0)
}

// Release implements HeaderTable: it invalidates the handle's generation
// and recycles the slot. Only the first caller for a given generation
// takes effect; the value must already be deleted (TryDelete succeeded)
// or never published.
func (t *ReclaimingTable) Release(h uint64) {
	slot, gen := slotOf(h), genOf(h)
	if slot == 0 {
		return
	}
	// The generation CAS makes release exactly-once: losers see a
	// mismatch and back off. The winner owns the slot until it is pushed,
	// so writing the next link into its data word is unshared.
	if !t.genWord(slot).CompareAndSwap(gen, (gen+1)&(1<<24-1)) {
		return
	}
	t.released.Inc()
	for {
		head := t.freeHead.Load()
		t.dataWord(slot).Store(head & slotMask)
		if t.freeHead.CompareAndSwap(head, headWith(head, slot)) {
			return
		}
	}
}

// validate reports whether the handle's generation is still current.
func (t *ReclaimingTable) validate(h uint64) bool {
	return t.genWord(slotOf(h)).Load() == genOf(h)
}

// IsDeleted implements HeaderTable; stale handles read as deleted.
func (t *ReclaimingTable) IsDeleted(h uint64) bool {
	if !t.validate(h) {
		return true
	}
	return t.lockWord(slotOf(h)).Load()&deletedBit != 0
}

// TryReadLock implements HeaderTable.
func (t *ReclaimingTable) TryReadLock(h uint64) bool {
	slot := slotOf(h)
	w := t.lockWord(slot)
	for spins := 0; ; spins++ {
		if !t.validate(h) {
			return false
		}
		v := w.Load()
		if v&deletedBit != 0 {
			return false
		}
		if v&writerBit != 0 {
			backoff(spins)
			continue
		}
		if w.CompareAndSwap(v, v+1) {
			// The slot may have been recycled between validate and the
			// CAS; re-verify under the lock, where recycling is blocked.
			if !t.validate(h) {
				w.Add(^uint64(0))
				return false
			}
			return true
		}
	}
}

// ReadUnlock implements HeaderTable.
func (t *ReclaimingTable) ReadUnlock(h uint64) {
	t.lockWord(slotOf(h)).Add(^uint64(0))
}

// TryWriteLock implements HeaderTable.
func (t *ReclaimingTable) TryWriteLock(h uint64) bool {
	slot := slotOf(h)
	w := t.lockWord(slot)
	for spins := 0; ; spins++ {
		if !t.validate(h) {
			return false
		}
		v := w.Load()
		if v&deletedBit != 0 {
			return false
		}
		if v != 0 {
			backoff(spins)
			continue
		}
		if w.CompareAndSwap(0, writerBit) {
			if !t.validate(h) {
				w.Store(0)
				return false
			}
			return true
		}
	}
}

// WriteUnlock implements HeaderTable.
func (t *ReclaimingTable) WriteUnlock(h uint64) {
	t.lockWord(slotOf(h)).Store(0)
}

// TryDelete implements HeaderTable.
func (t *ReclaimingTable) TryDelete(h uint64) bool {
	if !t.TryWriteLock(h) {
		return false
	}
	t.lockWord(slotOf(h)).Store(deletedBit)
	return true
}

// DeleteLocked implements HeaderTable.
func (t *ReclaimingTable) DeleteLocked(h uint64) {
	t.lockWord(slotOf(h)).Store(deletedBit)
}

// LoadData implements HeaderTable.
func (t *ReclaimingTable) LoadData(h uint64) uint64 {
	return t.dataWord(slotOf(h)).Load()
}

// StoreData implements HeaderTable.
func (t *ReclaimingTable) StoreData(h uint64, ref uint64) {
	t.dataWord(slotOf(h)).Store(ref)
}

// LoadVersion implements HeaderTable.
func (t *ReclaimingTable) LoadVersion(h uint64) uint64 {
	return t.verWord(slotOf(h)).Load()
}

// StoreVersion implements HeaderTable.
func (t *ReclaimingTable) StoreVersion(h uint64, v uint64) {
	t.verWord(slotOf(h)).Store(v)
}

// Count implements HeaderTable: slots ever materialized (reuse keeps
// this bounded by the peak live-value count, the point of the paper's
// epoch extension).
func (t *ReclaimingTable) Count() uint64 { return t.next.Load() - 1 }

// Released returns the number of slots recycled so far.
func (t *ReclaimingTable) Released() int64 { return t.released.Load() }

// Reused returns the number of allocations served from recycled slots.
func (t *ReclaimingTable) Reused() int64 { return t.reused.Load() }
