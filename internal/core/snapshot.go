package core

import "oakmap/internal/arena"

// Snapshot read path. A snapshot is a version S from BeginSnapshot
// (stabilized via StabilizeSnapshot): reads resolve every key to the
// newest version ≤ S. The current value answers when its stamp is ≤ S;
// otherwise the key's retained chain (pre-images kept by copy-on-write
// retention, mvcc.go) holds the version the snapshot sees — or nothing,
// in which case the key was absent at S. Scans resolve the same way,
// entry by entry, on a frozen Cursor (cursor.go).

// snapReadCurrent outcomes.
const (
	snapFound  = iota // the current value is the snapshot's version
	snapAbsent        // definitively absent at S (no chain consult needed)
	snapOlder         // current version is newer than S: consult the chain
)

// SnapGet resolves key in the frozen view of snapshot s, appending the
// visible value to dst. ok reports whether the key was present at s.
func (m *Map) SnapGet(s uint64, key, dst []byte) ([]byte, bool) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	c := m.locateChunk(key)
	if ei := c.LookUp(key); ei >= 0 {
		if h := ValueHandle(c.ValHandle(ei)); h != 0 {
			return m.snapRead(s, h, key, dst)
		}
	}
	return m.retainedAt(s, key, dst)
}

// snapRead resolves key, whose entry holds handle h, at snapshot s: the
// current value if its stamp decides, else the key's retained chain. The
// visible value is appended to dst; ok=false means absent at s. The
// caller must hold an epoch pin (retainedAt).
func (m *Map) snapRead(s uint64, h ValueHandle, key, dst []byte) ([]byte, bool) {
	out, st := m.snapReadCurrent(s, h, dst)
	if st == snapOlder {
		return m.retainedAt(s, key, dst)
	}
	return out, st == snapFound
}

// snapReadCurrent resolves handle h against snapshot s using only the
// header's current state: the value's bytes are appended to dst when its
// stamp decides the read. Batch-flagged versions resolve through the
// pending registry — a flagged-but-undecided batch always has base > s
// (StabilizeSnapshot waited out batches with base ≤ s), so its pre-state
// is what s sees. The caller need not hold an epoch pin: every byte read
// happens under the header's read lock, which also blocks the batch
// finalizer from handing off the pre-image span mid-read.
func (m *Map) snapReadCurrent(s uint64, h ValueHandle, dst []byte) ([]byte, int) {
	if !m.headers.TryReadLock(uint64(h)) {
		return nil, snapOlder // deleted now; the chain knows the past
	}
	defer m.headers.ReadUnlock(uint64(h))
	v := m.headers.LoadVersion(uint64(h))
	if v&verFlagMask == 0 {
		if v <= s {
			ref := arena.Ref(m.headers.LoadData(uint64(h)))
			return append(dst, m.alloc.Bytes(ref)...), snapFound
		}
		return nil, snapOlder
	}
	base := v & verBaseMask
	for {
		bi := m.lookupBatch(base)
		if bi == nil {
			// Finalized between the version load and the lookup; the read
			// lock pins further finalization, so this settles immediately.
			v = m.headers.LoadVersion(uint64(h))
			if v&verFlagMask != 0 {
				continue
			}
			if v <= s {
				ref := arena.Ref(m.headers.LoadData(uint64(h)))
				return append(dst, m.alloc.Bytes(ref)...), snapFound
			}
			return nil, snapOlder
		}
		committed := bi.desc.state.Load() == batchCommitted
		if v&verTombBit != 0 {
			// Tombstone: the data in place is the pre-delete value.
			if committed && base <= s {
				return nil, snapAbsent
			}
			rec := bi.lookup(h)
			if rec != nil && rec.oldVer <= s {
				ref := arena.Ref(m.headers.LoadData(uint64(h)))
				return append(dst, m.alloc.Bytes(ref)...), snapFound
			}
			return nil, snapOlder
		}
		if committed && base <= s {
			ref := arena.Ref(m.headers.LoadData(uint64(h)))
			return append(dst, m.alloc.Bytes(ref)...), snapFound
		}
		// Uncommitted, or committed after s: the pre-image decides.
		rec := bi.lookup(h)
		if rec == nil || !rec.hadOld {
			return nil, snapOlder // fresh insert the snapshot cannot see
		}
		if rec.oldVer <= s {
			return append(dst, m.alloc.Bytes(rec.oldRef)...), snapFound
		}
		return nil, snapOlder
	}
}

// retainedAt appends the retained pre-image visible to snapshot s for
// key, if any. The caller must hold an epoch pin: the chain entry is
// copied out under the registry lock (serializing with the sweep's
// unlink), and the pin then keeps the span's bytes mapped even if a
// concurrent snapshot close retires it.
func (m *Map) retainedAt(s uint64, key, dst []byte) ([]byte, bool) {
	st := &m.mvcc
	st.mu.Lock()
	var ref arena.Ref
	found := false
	if chain := st.byKey[string(key)]; chain != nil {
		// Newest entry with ver ≤ s < super (entries are ver-ascending).
		for i := len(chain.entries) - 1; i >= 0; i-- {
			e := chain.entries[i]
			if e.ver <= s {
				if e.super > s {
					ref, found = e.ref, true
				}
				break
			}
		}
	}
	st.mu.Unlock()
	if !found {
		return nil, false
	}
	return append(dst, m.alloc.Bytes(ref)...), true
}
