package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"oakmap/internal/arena"
	"oakmap/internal/faultpoint"
	"oakmap/internal/vheader"
)

// This file is the MVCC heart of the map: a per-map version clock, the
// open-snapshot registry that ratchets the reclaim horizon, and the
// retained-version store that keeps copy-on-write pre-images alive for
// open snapshots.
//
// Versioning scheme. Every mutation stamps the value header's version
// word with the clock's current value; the clock itself only moves when
// a snapshot or a batch is created:
//
//   - Snapshot: raise retainFloor to S+1, then CAS the clock S → S+1
//     (BeginSnapshot). Writers that loaded the clock before the ratchet
//     stamp ≤ S (inside the snapshot), writers after stamp > S
//     (outside) — and, because the floor is raised before the ratchet
//     is observable, an outside writer is guaranteed to see the raised
//     floor and retain the pre-image the snapshot still needs. Every
//     stamp is loaded under its value's write lock, after the value is
//     reachable, so the view is frozen without waiting on any writer:
//     an in-place write that loaded ≤ S held the lock at the ratchet,
//     and S's readers wait for it; a fresh value is published locked
//     and stamped after its entry CAS, so it stamps ≤ S only if the CAS
//     preceded the ratchet, and no reader of S saw the key absent.
//     Reads that report a key without its lock (getPinned, live scans)
//     wait while the value is fresh, so a snapshot opened after such a
//     read ratchets above the insert's stamp.
//   - Batch: base = clock.Add(2)-1, under pendMu together with the
//     registry insert (PrepareBatch). The skipped value means no normal
//     write ever stamps a batch's base version — base uniquely
//     identifies the batch in flagged version words.
//
// Version word layout (stored via vheader.StoreVersion):
//
//	bit 63    verPendingBit — installed by a batch, not yet finalized
//	bit 62    verTombBit    — batch delete (pending tombstone)
//	bits 0-61 base version
//
// Flag-free words are plain committed versions; flagged words route
// readers through the pending-batch registry, which resolves them to the
// batch's pre-state before commit and post-state after — that single
// indirection is what makes ApplyBatch all-or-nothing.
const (
	verPendingBit = uint64(1) << 63
	verTombBit    = uint64(1) << 62
	verFlagMask   = verPendingBit | verTombBit
	verBaseMask   = verTombBit - 1
)

// Fault-injection points on the MVCC layer (no-ops unless armed).
var (
	// FpMvccRetain is hit when a superseded value span is about to enter
	// the retained store (instead of being retired): pausing here widens
	// the window between the new version's install and the pre-image
	// becoming findable by snapshot scans.
	FpMvccRetain = faultpoint.New("mvcc/retain")
	// FpMvccHorizon is hit at the start of a horizon sweep (snapshot
	// close recomputing the reclaim horizon and releasing newly invisible
	// retained spans): pausing here holds the horizon back while writers
	// keep retaining against the old floor.
	FpMvccHorizon = faultpoint.New("mvcc/horizon")
)

// retEntry is one retained pre-image: the value's bytes as of version
// ver, superseded (overwritten or deleted) at version super. It is
// visible to a snapshot S iff ver ≤ S < super.
type retEntry struct {
	ver   uint64
	super uint64
	ref   arena.Ref
}

// retChain is a key's retained version chain, entries ascending by ver.
type retChain struct {
	entries []retEntry
}

// mvccState is the per-map MVCC bookkeeping. Hot paths touch only the
// two atomics (clock on every write, retainFloor as the retention gate);
// everything else is cold-path state behind mu.
type mvccState struct {
	// clock may only ratchet under mu (BeginSnapshot's CAS) or pendMu
	// (PrepareBatch's Add) — the PR-8 race was an unlocked ratchet.
	clock atomic.Uint64 //oak:guarded-by mu,pendMu // next write stamps this value; starts at 1
	// retainFloor must be raised before the clock ratchet publishes
	// (see BeginSnapshot), and only Begin/EndSnapshot write it.
	retainFloor atomic.Uint64 //oak:guarded-by mu //oak:publish-before clock // max open snapshot + 1; 0 = none
	openCount   atomic.Int64
	retBytes    atomic.Int64 // bytes held by the retained store
	retSpans    atomic.Int64 // spans held by the retained store

	mu   sync.Mutex
	open []uint64 //oak:guarded-by mu // open snapshot versions, ascending (duplicates allowed)

	// Retained store: chains keyed by an owned copy of the serialized
	// key. Chains are keyed by key bytes (not value handles) because a
	// remove + re-insert swaps the entry's handle while the key's
	// version history must stay one chain. Scans never enumerate it: a
	// key with a chain stays linked in its chunk (keepDeleted).
	byKey map[string]*retChain //oak:guarded-by mu

	// Pending-batch registry: base version → install record. Readers
	// that hit a flagged version word resolve it here (cold path).
	pendMu  sync.RWMutex
	pending map[uint64]*BatchInstall //oak:guarded-by pendMu
}

func (st *mvccState) init() {
	st.clock.Store(vheader.InitialVersion) // plain writes then cost the default table no version words
	st.byKey = make(map[string]*retChain)
	st.pending = make(map[uint64]*BatchInstall)
}

// visibleLocked reports whether some open snapshot S satisfies
// ver ≤ S < super. Callers hold st.mu.
func (st *mvccState) visibleLocked(ver, super uint64) bool {
	i := sort.Search(len(st.open), func(i int) bool { return st.open[i] >= ver })
	return i < len(st.open) && st.open[i] < super
}

// lookupBatch resolves a flagged version word's base to its pending
// install record, nil once the batch has finalized.
func (m *Map) lookupBatch(base uint64) *BatchInstall {
	st := &m.mvcc
	st.pendMu.RLock()
	bi := st.pending[base]
	st.pendMu.RUnlock()
	return bi
}

// BeginSnapshot ratchets the version clock and registers an open
// snapshot, returning its version S. The view is not stable until
// StabilizeSnapshot(S) has been called; every BeginSnapshot must be
// paired with exactly one EndSnapshot.
//
// Ordering is load-bearing: the floor is raised BEFORE the clock
// ratchet becomes observable. Writers load the clock first and the
// floor second (valuePut et al.), so a writer that observed a
// post-ratchet clock value (newVer > S — the snapshot must not see its
// write) is guaranteed to also observe floor ≥ S+1 and take the
// copy-on-write retention path for the pre-image S still needs. If the
// ratchet CAS loses to a concurrent batch prepare, the loop re-raises
// the floor for the newer clock value; a transiently too-high floor is
// safe (retireOrRetain re-checks precisely under mu).
func (m *Map) BeginSnapshot() uint64 {
	st := &m.mvcc
	st.mu.Lock()
	var s uint64
	for {
		c := st.clock.Load()
		if st.retainFloor.Load() < c+1 {
			st.retainFloor.Store(c + 1) // only Begin/End write the floor, both under mu
		}
		if st.clock.CompareAndSwap(c, c+1) {
			s = c
			break
		}
	}
	st.open = append(st.open, s) // clock is monotone: append keeps order
	st.openCount.Add(1)
	st.mu.Unlock()
	return s
}

// StabilizeSnapshot makes snapshot S's view immutable: it waits out any
// batch whose base version is ≤ S and still undecided (its commit would
// otherwise flip inside the view). Plain writes need no wait: each
// stamps under its value's write lock, which S's readers wait on.
func (m *Map) StabilizeSnapshot(s uint64) {
	st := &m.mvcc
	for {
		var wait *BatchInstall
		st.pendMu.RLock()
		for base, bi := range st.pending {
			if base <= s && bi.desc.state.Load() == batchPending {
				wait = bi
				break
			}
		}
		st.pendMu.RUnlock()
		if wait == nil {
			break
		}
		<-wait.desc.done
	}
}

// EndSnapshot closes snapshot S: it leaves the open set, the reclaim
// horizon advances, and retained spans no open snapshot can see are
// retired through the epoch domain.
func (m *Map) EndSnapshot(s uint64) {
	st := &m.mvcc
	st.mu.Lock()
	i := sort.Search(len(st.open), func(i int) bool { return st.open[i] >= s })
	if i < len(st.open) && st.open[i] == s {
		st.open = append(st.open[:i], st.open[i+1:]...)
		st.openCount.Add(-1)
	}
	if n := len(st.open); n == 0 {
		st.retainFloor.Store(0)
	} else {
		st.retainFloor.Store(st.open[n-1] + 1)
	}
	m.sweepRetainedLocked()
	st.mu.Unlock()
}

// sweepRetainedLocked drops every retained entry that no open snapshot
// can see, retiring its span through the epoch domain. Called with
// st.mu held (snapshot close — the horizon only advances there).
func (m *Map) sweepRetainedLocked() {
	st := &m.mvcc
	FpMvccHorizon.Fire()
	for key, chain := range st.byKey {
		kept := chain.entries[:0]
		for _, e := range chain.entries {
			if st.visibleLocked(e.ver, e.super) {
				kept = append(kept, e)
				continue
			}
			st.retBytes.Add(-int64(e.ref.Len()))
			st.retSpans.Add(-1)
			m.retire(e.ref)
		}
		chain.entries = kept
		if len(kept) == 0 {
			delete(st.byKey, key)
		}
	}
}

// keepDeleted is the chain check that keeps snapshot-visible keys linked.
// The caller has seen the key's handle read deleted; the entry must then
// keep that handle (not be cleared to ⊥ or dropped by a rebalance) while
// the key has a retained chain, so that a frozen scan — one walk of the
// chunk list — still meets every key some open snapshot can see.
//
// The order of the three reads makes the check race-free: every retain
// happens before the deleted bit it precedes is set (retain before
// publish), so once the handle reads deleted, a chain it needed is either
// in byKey or already swept because no open snapshot can see it. With no
// snapshot open the check is the one floor load.
func (m *Map) keepDeleted(key []byte) bool {
	st := &m.mvcc
	if st.retainFloor.Load() == 0 {
		return false
	}
	st.mu.Lock()
	_, ok := st.byKey[string(key)]
	st.mu.Unlock()
	return ok
}

// retireOrRetain disposes of a superseded value span: if some open
// snapshot can still see version oldVer (it was overwritten or deleted
// at version super), the span enters the retained store; otherwise it is
// retired through the epoch domain. key nil means the value was never
// visible (a discarded unpublished allocation) and is always retired.
// Callers hold the value's header write lock and call this before the
// store that makes the superseding state loadable (retain before
// publish; header lock → mvccState.mu is the lock order).
// The fast path is one atomic load: with no open snapshots retainFloor
// is 0 and nothing is ever retained.
func (m *Map) retireOrRetain(key []byte, ref arena.Ref, oldVer, super uint64) {
	if ref == 0 {
		return
	}
	if key == nil || oldVer >= m.mvcc.retainFloor.Load() {
		m.retire(ref)
		return
	}
	FpMvccRetain.Fire()
	st := &m.mvcc
	st.mu.Lock()
	// Precise re-check under the registry lock: the floor is a racy gate
	// and may have moved; retaining for a just-closed snapshot would
	// leak until the next sweep — or forever, if it was the last one.
	if !st.visibleLocked(oldVer, super) {
		st.mu.Unlock()
		m.retire(ref)
		return
	}
	chain := st.byKey[string(key)]
	if chain == nil {
		chain = &retChain{}
		st.byKey[string(key)] = chain
	}
	// Entries stay ver-ascending: a later retain's ver is ≥ the earlier
	// retain's super for the same key, but insert defensively.
	e := retEntry{ver: oldVer, super: super, ref: ref}
	j := len(chain.entries)
	for j > 0 && chain.entries[j-1].ver > e.ver {
		j--
	}
	chain.entries = append(chain.entries, retEntry{})
	copy(chain.entries[j+1:], chain.entries[j:])
	chain.entries[j] = e
	st.retBytes.Add(int64(ref.Len()))
	st.retSpans.Add(1)
	st.mu.Unlock()
}

// MVCCStats is the observability snapshot of the MVCC layer.
type MVCCStats struct {
	OpenSnapshots int64  // currently open snapshot views
	RetainedBytes int64  // bytes held by the retained-version store
	RetainedSpans int64  // spans held by the retained-version store
	HorizonLag    uint64 // current version − oldest open snapshot (0 if none)
}

// MVCCStats returns the MVCC layer's counters.
func (m *Map) MVCCStats() MVCCStats {
	st := &m.mvcc
	out := MVCCStats{
		OpenSnapshots: st.openCount.Load(),
		RetainedBytes: st.retBytes.Load(),
		RetainedSpans: st.retSpans.Load(),
	}
	st.mu.Lock()
	if len(st.open) > 0 {
		out.HorizonLag = st.clock.Load() - 1 - st.open[0]
	}
	st.mu.Unlock()
	return out
}

// lockStable acquires h's write lock and waits out any batch-flagged
// version: a pending or unfinalized batch owns the value's next state,
// and a normal write slipping in between install and commit would tear
// the batch's atomicity (readers could observe the overwrite before the
// batch's other keys). Returns the current committed version; ok=false
// iff the value is deleted. May block on the owning batch's decision, so
// a batch must never call it on a value carrying its own stamp (it would
// wait on itself): its finalize and rollback take the plain write lock
// instead, and a lost-race discard still holds allocValue's. Batches do
// wait on other batches here, and the global install order (key, then
// shard) keeps those waits acyclic.
func (m *Map) lockStable(h ValueHandle) (uint64, bool) {
	for spins := 0; ; spins++ {
		if !m.headers.TryWriteLock(uint64(h)) {
			return 0, false
		}
		v := m.headers.LoadVersion(uint64(h))
		if v&verFlagMask == 0 {
			return v, true
		}
		m.headers.WriteUnlock(uint64(h))
		if bi := m.lookupBatch(v & verBaseMask); bi != nil {
			<-bi.desc.done // decided; finalize/rollback clears the flags shortly
		}
		retryPause(spins + 5)
	}
}

// liveView is the snapshot a live read resolves at: verBaseMask is at or
// above every batch base, so a committed batch is always visible to it.
const liveView = verBaseMask

// visible is the one batch-visibility rule: it resolves handle h, whose
// version word the caller loaded as v, for a reader at snapshot s (live
// reads pass liveView) to the data span the reader sees and that span's
// version. A flag-free word gives the data word and v. A flagged word
// gives the batch's post-state iff the batch committed with base ≤ s, and
// otherwise its pre-state from the install record; a tombstone's
// pre-state is the data left in place. ok=false means h holds nothing the
// reader sees: a fresh insert it may not see, a tombstone it does see, or
// a word that settled into a real delete after the caller's load.
//
// Under h's read lock the finalizer (which needs the write lock) cannot
// run, so the install record and the pre-image span outlive the caller's
// read; unlocked callers may use only ok.
func (m *Map) visible(h ValueHandle, v, s uint64) (ref arena.Ref, ver uint64, ok bool) {
	for v&verFlagMask != 0 {
		base := v & verBaseMask
		bi := m.lookupBatch(base)
		if bi == nil {
			// Settled between the load and the lookup. A committed
			// tombstone or an aborted insert keeps its flagged word once
			// deleted, so the deleted bit is checked before the reload.
			if m.IsDeleted(h) {
				return 0, 0, false
			}
			v = m.headers.LoadVersion(uint64(h))
			continue
		}
		if bi.desc.state.Load() == batchCommitted && base <= s {
			if v&verTombBit != 0 {
				return 0, 0, false
			}
			return arena.Ref(m.headers.LoadData(uint64(h))), base, true
		}
		rec := bi.lookup(h)
		switch {
		case rec == nil || !rec.hadOld:
			return 0, 0, false
		case rec.del:
			return arena.Ref(m.headers.LoadData(uint64(h))), rec.oldVer, true
		default:
			return rec.oldRef, rec.oldVer, true
		}
	}
	return arena.Ref(m.headers.LoadData(uint64(h))), v, true
}
