package core

import (
	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/faultpoint"
)

// Fault-injection points on the value-header protocol (no-ops unless a
// test arms them).
var (
	// FpHeaderLock is hit with the value's write lock held (valuePut,
	// valueCompute, and putAttempt between a fresh insert's entry CAS and
	// its version stamp): a pausing hook stretches the critical section so
	// concurrent readers and writers pile up on the header spinlock.
	FpHeaderLock = faultpoint.New("core/header-lock")
	// FpDeletedBit is hit right after a value's deleted bit is set: in
	// this window the handle must read as deleted everywhere while the
	// entry still references it, and the pre-image must already be
	// findable in the retained store (retain-before-publish).
	FpDeletedBit = faultpoint.New("core/deleted-bit")
)

// ValueHandle identifies a value: a slot of the map's header table and
// the slot's generation. A slot is recycled only after an epoch grace
// period and under a new generation, so a handle read under a pin is
// an ABA-free token for that pin's entry CASes (§4.4), and a handle kept
// past its value's removal reads as deleted. Handle 0 is ⊥.
type ValueHandle uint64

// KeyBytes returns the serialized key behind a key reference. Keys are
// immutable, so no locking is required (§2.1) — but with key
// reclamation the caller must hold an epoch pin (all internal scan and
// lookup paths do); external view reads go through ReadKey instead.
func (m *Map) KeyBytes(keyRef uint64) []byte {
	return m.alloc.Bytes(arena.Ref(keyRef))
}

// ReadKey runs f on the serialized key behind keyRef under an epoch
// pin, so the key's space cannot be recycled mid-read. h is the entry's
// value handle at view-creation time: a live (non-deleted) handle
// proves the entry — and therefore its key — has not been gathered as
// dead by any rebalance, so the bytes are authentic. Once the mapping
// has been deleted the read fails with ErrConcurrentModification
// rather than returning possibly-recycled bytes. h may be 0 when the
// caller is already pinned and owns the liveness argument itself.
func (m *Map) ReadKey(keyRef uint64, h ValueHandle, f func([]byte) error) error {
	g := m.reclaim.Pin()
	defer g.Unpin()
	if h != 0 && m.IsDeleted(h) {
		return ErrConcurrentModification
	}
	return f(m.KeyBytes(keyRef))
}

// prefetchValue hints the first line of h's value (h non-⊥) into the
// cache: it loads the header's data word without the header's lock and
// prefetches the bytes it refers to. A stale word only wastes the hint.
// Gets hint the entry they are about to compare, scans every entry of a
// run before its callbacks.
func (m *Map) prefetchValue(h ValueHandle) {
	m.alloc.Prefetch(arena.Ref(m.headers.LoadData(uint64(h))))
}

// IsDeleted reports whether the value behind h is deleted.
func (m *Map) IsDeleted(h ValueHandle) bool {
	return m.headers.IsDeleted(uint64(h))
}

// ReadValue runs f on the value's current serialized bytes under the
// value's read lock (one atomic acquisition per call — the paper's
// method-call-granularity concurrency control, §2.2). It returns
// ErrConcurrentModification if the value was deleted. f must not retain
// the slice beyond the call.
//
// A batch-flagged version word (the MVCC slow path, one extra atomic
// load on the fast path) resolves through visible, so the caller
// observes the batch all-or-nothing: its pre-state before commit, its
// post-state after.
func (m *Map) ReadValue(h ValueHandle, f func([]byte) error) error {
	if !m.headers.TryReadLock(uint64(h)) {
		return ErrConcurrentModification
	}
	defer m.headers.ReadUnlock(uint64(h))
	ref := arena.Ref(m.headers.LoadData(uint64(h)))
	if v := m.headers.LoadVersion(uint64(h)); v&verFlagMask != 0 {
		var ok bool
		if ref, _, ok = m.visible(h, v, liveView); !ok {
			return ErrConcurrentModification
		}
	}
	return f(m.alloc.Bytes(ref))
}

// ValueLen returns the value's current length in bytes, or an error if
// the value is deleted.
func (m *Map) ValueLen(h ValueHandle) (int, error) {
	n := -1
	err := m.ReadValue(h, func(b []byte) error { n = len(b); return nil })
	return n, err
}

// CopyValue appends the value's bytes to dst and returns the result.
func (m *Map) CopyValue(h ValueHandle, dst []byte) ([]byte, error) {
	err := m.ReadValue(h, func(b []byte) error {
		dst = append(dst, b...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// valuePut implements v.put(val) (§3.3): replace the value's contents
// atomically. Returns false iff the value is deleted. If the new content
// has a different size, the buffer is reallocated and the old space is
// freed (the paper's "return to the free list upon ... value resize").
//
// MVCC: the write stamps the clock's current version. The version must
// be loaded BEFORE the retention gate, and BeginSnapshot raises the
// floor BEFORE its clock ratchet; together the two orders cover every
// interleaving with a snapshot S: if newVer ≤ S the snapshot sees this
// write and the pre-image is not needed, and if newVer > S the clock
// load observed the ratchet, so the later gate load is guaranteed to
// observe the raised floor and retain. When some open snapshot can see
// the old version, the in-place path is disabled (copy-on-write: the
// old span's bytes must survive) and the superseded span is retained
// instead of retired. key is the serialized key for the retained-chain
// index.
//
// A batch install (bi non-nil) always takes the copy-on-write path, and
// instead of disposing of the pre-image it records it in bi and stamps
// the value base|pending: readers resolve to the pre-image until the
// batch commits, and finalize or rollback disposes of one of the spans.
func (m *Map) valuePut(key []byte, h ValueHandle, vw ValueWriter, bi *BatchInstall) (bool, error) {
	oldVer, ok := m.lockStable(h)
	if !ok {
		return false, nil
	}
	defer m.headers.WriteUnlock(uint64(h))
	FpHeaderLock.Fire()
	newVer := m.mvcc.clock.Load()
	retain := oldVer < m.mvcc.retainFloor.Load()
	old := arena.Ref(m.headers.LoadData(uint64(h)))
	if bi == nil && old.Len() == vw.N && !retain {
		vw.Write(m.alloc.Bytes(old))
		m.headers.StoreVersion(uint64(h), newVer)
		return true, nil
	}
	nref, err := m.alloc.Alloc(vw.N)
	if err != nil {
		return false, err
	}
	vw.Write(m.alloc.Bytes(nref))
	m.headers.StoreData(uint64(h), uint64(nref))
	if bi != nil {
		// The record is registered before the flagged stamp becomes
		// loadable (readers are excluded until the deferred unlock).
		bi.add(batchRec{key: append([]byte(nil), key...), h: h, hadOld: true, oldRef: old, oldVer: oldVer})
		m.headers.StoreVersion(uint64(h), bi.base|verPendingBit)
		return true, nil
	}
	m.headers.StoreVersion(uint64(h), newVer)
	// The old span is retired (not freed) so any path that loaded the ref
	// under an epoch pin stays safe until the grace period elapses — or
	// retained, if an open snapshot can still see version oldVer. Either
	// way it is disposed of before the unlock publishes the new version.
	m.retireOrRetain(key, old, oldVer, newVer)
	return true, nil
}

// valueCompute implements v.compute(func) (§3.3): run the user's update
// lambda on the value in place, atomically, exactly once. Returns false
// iff the value is deleted.
//
// MVCC: when an open snapshot can see the current version, the span is
// privatized first (copy-on-write) so the lambda's in-place mutation
// cannot destroy snapshot-visible bytes; the pre-image is retained.
func (m *Map) valueCompute(key []byte, h ValueHandle, f func(*WBuffer) error) (bool, error) {
	oldVer, ok := m.lockStable(h)
	if !ok {
		return false, nil
	}
	defer m.headers.WriteUnlock(uint64(h))
	FpHeaderLock.Fire()
	newVer := m.mvcc.clock.Load()
	if oldVer < m.mvcc.retainFloor.Load() {
		old := arena.Ref(m.headers.LoadData(uint64(h)))
		nref, err := m.alloc.Alloc(old.Len())
		if err != nil {
			return false, err
		}
		copy(m.alloc.Bytes(nref), m.alloc.Bytes(old))
		m.headers.StoreData(uint64(h), uint64(nref))
		m.retireOrRetain(key, old, oldVer, newVer)
	}
	m.headers.StoreVersion(uint64(h), newVer)
	w := WBuffer{m: m, h: h}
	if err := f(&w); err != nil {
		return false, err
	}
	return true, nil
}

// killValue implements v.remove() (§3.3) for every path that deletes a
// value — Remove, a batch tombstone's finalize, the rollback of a batch
// insert, and the discard of a value that lost its install race. The
// caller holds h's write lock, which setting the deleted bit releases.
// oldVer is the value's committed version and super the version deleting
// it. A nil key marks a value no reader was ever allowed to see: its
// span is retired, never retained. c, when non-nil, is the chunk holding
// the value's entry; the map's and the chunk's live counts drop with it.
//
// Retain before publish: the pre-image enters the retained store while
// the lock is still held, so a snapshot reader that finds the value
// deleted always finds the version it needs in the key's chain.
func (m *Map) killValue(key []byte, h ValueHandle, c *chunk.Chunk, oldVer, super uint64) {
	// Privatize the data reference and hand it to retireOrRetain while
	// still holding the write lock, and only then set the deleted bit: a
	// snapshot reader that observes the bit must already find the
	// pre-image in the retained store (the retain-before-publish order the
	// deleted-bit fault window pins).
	ref := arena.Ref(m.headers.LoadData(uint64(h)))
	m.headers.StoreData(uint64(h), 0)
	m.retireOrRetain(key, ref, oldVer, super)
	// The protecting lock is the header's word-level write lock — a
	// vheader spinlock, not a sync.Mutex, so the lockset walk cannot
	// see it.
	m.headers.DeleteLocked(uint64(h)) //oak:allow lockset header write-lock held by the caller
	FpDeletedBit.Fire()
	if c != nil {
		m.size.Add(-1)
		c.DecLive()
	}
}

// ValueWriter produces a value's serialized form directly inside Oak's
// off-heap memory, realizing the paper's "create the binary
// representation of the object directly into Oak's internal memory"
// (§2.1): N is the serialized size, Write fills a buffer of exactly N
// bytes.
type ValueWriter struct {
	N     int
	Write func([]byte)
}

// BytesValue adapts an already-serialized value to a ValueWriter.
func BytesValue(val []byte) ValueWriter {
	return ValueWriter{N: len(val), Write: func(dst []byte) { copy(dst, val) }}
}

// allocValue allocates a fresh value (header + off-heap data), fills it
// via vw and returns its handle write-locked and marked fresh: the caller
// stamps its version and unlocks it once its entry CAS has won, so a
// reader that meets the value waits for the stamp, and so does a
// presence probe (IsLive). The header is unpublished, so the stores need
// no other guard.
func (m *Map) allocValue(vw ValueWriter) (ValueHandle, error) {
	ref, err := m.alloc.Alloc(vw.N)
	if err != nil {
		return 0, err
	}
	vw.Write(m.alloc.Bytes(ref))
	h := m.headers.Alloc()
	m.headers.LockFresh(h)
	m.headers.StoreData(h, uint64(ref))
	return ValueHandle(h), nil
}

// WBuffer is the paper's OakWBuffer: a writable view of a value, valid
// only inside an update lambda, while the value's write lock is held. It
// supports in-place mutation and resizing.
type WBuffer struct {
	m *Map
	h ValueHandle
}

// Bytes returns the value's current writable contents. The slice is
// invalidated by Resize.
func (w *WBuffer) Bytes() []byte {
	ref := arena.Ref(w.m.headers.LoadData(uint64(w.h)))
	return w.m.alloc.Bytes(ref)
}

// Len returns the value's current length.
func (w *WBuffer) Len() int {
	return arena.Ref(w.m.headers.LoadData(uint64(w.h))).Len()
}

// Resize changes the value's length to n, preserving the common prefix.
// Growth beyond the current allocation moves the value to fresh space and
// frees the old buffer — the paper's in-situ update that "extends the
// value's memory allocation if its code so requires" (§2.2).
func (w *WBuffer) Resize(n int) error {
	old := arena.Ref(w.m.headers.LoadData(uint64(w.h)))
	if old.Len() == n {
		return nil
	}
	nref, err := w.m.alloc.Alloc(n)
	if err != nil {
		return err
	}
	nb := w.m.alloc.Bytes(nref)
	copy(nb, w.m.alloc.Bytes(old))
	for i := old.Len(); i < n; i++ {
		nb[i] = 0
	}
	w.m.headers.StoreData(uint64(w.h), uint64(nref))
	w.m.retire(old)
	return nil
}

// Set replaces the value's contents with val (resizing as needed).
func (w *WBuffer) Set(val []byte) error {
	if err := w.Resize(len(val)); err != nil {
		return err
	}
	copy(w.Bytes(), val)
	return nil
}
