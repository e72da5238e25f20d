package core

import "oakmap/internal/arena"

// Snapshot read path. A snapshot is a version S from BeginSnapshot
// (stabilized via StabilizeSnapshot): reads resolve every key to the
// newest version ≤ S. The current value answers when its stamp is ≤ S;
// otherwise the key's retained chain (pre-images kept by copy-on-write
// retention, mvcc.go) holds the version the snapshot sees — or nothing,
// in which case the key was absent at S. Scans resolve the same way,
// entry by entry, on a frozen Cursor (cursor.go).

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
// current value when visible gives a version ≤ s, else the key's retained
// chain. The visible value is appended to dst; ok=false means absent at s.
// The header's read lock covers the copy of the current value and blocks
// the batch finalizer from handing off a pre-image span mid-read; the
// caller's epoch pin covers retainedAt.
//
// A batch still pending when s was taken has base > s (StabilizeSnapshot
// waited out those with base ≤ s), so visible gives s its pre-state. A
// committed tombstone with base ≤ s falls through to the chain, which
// holds nothing s sees: every entry there was superseded at or before
// base.
func (m *Map) snapRead(s uint64, h ValueHandle, key, dst []byte) ([]byte, bool) {
	if m.headers.TryReadLock(uint64(h)) {
		ref, ver, ok := m.visible(h, m.headers.LoadVersion(uint64(h)), s)
		if ok = ok && ver <= s; ok {
			dst = append(dst, m.alloc.Bytes(ref)...)
		}
		m.headers.ReadUnlock(uint64(h))
		if ok {
			return dst, true
		}
	}
	return m.retainedAt(s, key, dst)
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
