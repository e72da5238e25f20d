package oakmap

import (
	"encoding/binary"

	"oakmap/internal/core"
)

// OakRBuffer is a read-only view of an off-heap key or value (§2.1). It
// is a lightweight on-heap facade: it holds no copy of the data. Views
// may be retained arbitrarily long and accessed from any goroutine; each
// accessor call is individually atomic (method-call granularity, §2.2).
// Both kinds of view return ErrConcurrentModification once the mapping
// has been deleted: value reads fail on the deleted bit, and key reads
// fail the same way rather than exposing key space that epoch-based
// reclamation may have recycled.
type OakRBuffer struct {
	m      *core.Map
	h      core.ValueHandle
	keyRef uint64 // non-zero for key buffers
	snap   []byte // non-nil for detached snapshots made by Copy
	// view, when non-nil, is a scope-bound borrowed slice the buffer
	// reads directly — the stream-scan key representation. Unlike snap it
	// is NOT owned: it aliases memory (a scan's pinned arena bytes or a
	// merge cursor's reused resume copy) that is only valid inside the
	// callback or until the next iterator step, exactly the lifetime the
	// stream API grants its views. Copy() detaches it into a real snap.
	view []byte
}

// Read runs f on the buffer's current bytes, atomically with respect to
// concurrent updates. f must not retain the slice: it aliases off-heap
// memory that may be reused after the call.
func (b *OakRBuffer) Read(f func([]byte) error) error {
	if b.snap != nil {
		return f(b.snap)
	}
	if b.view != nil {
		return f(b.view)
	}
	if b.keyRef != 0 {
		// Key view: read under an epoch pin, validated against the
		// mapping's value handle (a live handle proves the key has not
		// been retired by a rebalance).
		return b.m.ReadKey(b.keyRef, b.h, f)
	}
	return b.m.ReadValue(b.h, f)
}

// Len returns the buffer's current length in bytes.
func (b *OakRBuffer) Len() (int, error) {
	n := 0
	err := b.Read(func(p []byte) error { n = len(p); return nil })
	return n, err
}

// Bytes returns a copy of the buffer's contents.
func (b *OakRBuffer) Bytes() ([]byte, error) {
	var out []byte
	err := b.Read(func(p []byte) error {
		out = append(out, p...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Copy returns a detached snapshot of the buffer backed by on-heap
// memory. Unlike the view it was made from, the snapshot is valid
// forever: it no longer reads through to the live value, and it is the
// sanctioned way to keep data from a scope-bound view (a stream
// callback's key/value pair) past its callback — oak-vet's zcescape
// analyzer recognizes Copy results as safe to retain.
func (b *OakRBuffer) Copy() (*OakRBuffer, error) {
	if b.snap != nil {
		return b, nil // snapshots are immutable: sharing is fine
	}
	data, err := b.Bytes()
	if err != nil {
		return nil, err
	}
	if data == nil {
		data = []byte{} // an empty snapshot is still a snapshot
	}
	return &OakRBuffer{snap: data}, nil
}

// AppendTo appends the buffer's contents to dst, avoiding an allocation
// when dst has capacity.
func (b *OakRBuffer) AppendTo(dst []byte) ([]byte, error) {
	err := b.Read(func(p []byte) error {
		dst = append(dst, p...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// ByteAt returns the byte at offset off.
func (b *OakRBuffer) ByteAt(off int) (byte, error) {
	var v byte
	err := b.Read(func(p []byte) error { v = p[off]; return nil })
	return v, err
}

// Uint64At returns the big-endian uint64 at offset off.
func (b *OakRBuffer) Uint64At(off int) (uint64, error) {
	var v uint64
	err := b.Read(func(p []byte) error {
		v = binary.BigEndian.Uint64(p[off:])
		return nil
	})
	return v, err
}

// OakWBuffer is a writable view of a value, valid only inside an update
// lambda while the value's write lock is held (§2.2). It supports
// in-place mutation and resizing; resizes transparently move the value
// within the arena.
type OakWBuffer struct {
	w *core.WBuffer
}

// Bytes returns the value's writable contents. The slice is invalidated
// by Resize/Set.
func (b OakWBuffer) Bytes() []byte { return b.w.Bytes() }

// Len returns the value's current length.
func (b OakWBuffer) Len() int { return b.w.Len() }

// Resize changes the value's length, preserving the common prefix.
func (b OakWBuffer) Resize(n int) error { return b.w.Resize(n) }

// Set replaces the value's contents.
func (b OakWBuffer) Set(p []byte) error { return b.w.Set(p) }

// PutUint64At stores v big-endian at offset off.
func (b OakWBuffer) PutUint64At(off int, v uint64) {
	binary.BigEndian.PutUint64(b.w.Bytes()[off:], v)
}

// Uint64At loads the big-endian uint64 at offset off.
func (b OakWBuffer) Uint64At(off int) uint64 {
	return binary.BigEndian.Uint64(b.w.Bytes()[off:])
}

// ZeroCopyMap is Oak's zero-copy view (the paper's
// ZeroCopyConcurrentNavigableMap, Table 1). Obtain it with Map.ZC().
type ZeroCopyMap[K, V any] struct {
	m *Map[K, V]
}

// Get returns a read-only view of the value mapped to k, or nil if k is
// absent. The view reads through to the live value: concurrent in-place
// updates are visible, and reads of a deleted value fail with
// ErrConcurrentModification.
//
// Get is a shell small enough to inline around the out-of-line lookup,
// so a caller that does not keep the view holds it in its own frame and
// the call allocates nothing (TestZCAllocs pins this).
func (z ZeroCopyMap[K, V]) Get(k K) *OakRBuffer {
	if b, ok := z.m.lookup(k); ok {
		return &b
	}
	return nil
}

// lookup finds k and returns a value view of it.
func (m *Map[K, V]) lookup(k K) (OakRBuffer, bool) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	c := m.s.ShardFor(*kb)
	h, ok := c.Get(*kb)
	return OakRBuffer{m: c, h: h}, ok
}

// Read runs f on the bytes of the value mapped to k, under the value's
// read lock, and reports whether k is mapped: Get plus OakRBuffer.Read
// without the view, so it creates no garbage. A mapping deleted between
// the lookup and the read counts as absent, and f does not run; err is
// f's. f must not retain the slice, and should be short: the value's
// writers wait for it.
func (z ZeroCopyMap[K, V]) Read(k K, f func([]byte) error) (found bool, err error) {
	b, ok := z.m.lookup(k)
	if !ok {
		return false, nil
	}
	err = b.m.ReadValue(b.h, func(b []byte) error {
		found = true
		return f(b)
	})
	if !found {
		return false, nil
	}
	return true, err
}

// Put maps k to v, serializing v directly into off-heap memory — the
// paper's zero-intermediate-copy insertion path (§2.1). Unlike the
// legacy put it does not return the old value (avoiding a copy). Each
// zero-copy put builds its core.ValueWriter in its own frame: core does
// not retain the writer, so the closure stays on the stack.
func (z ZeroCopyMap[K, V]) Put(k K, v V) error {
	kb := z.m.serializeKey(k)
	defer z.m.releaseKey(kb)
	vw := core.ValueWriter{N: z.m.valSer.SizeOf(v), Write: func(dst []byte) { z.m.valSer.Serialize(v, dst) }}
	return z.m.s.ShardFor(*kb).PutWriter(*kb, vw)
}

// PutIfAbsent inserts k→v if absent, reporting whether it inserted.
func (z ZeroCopyMap[K, V]) PutIfAbsent(k K, v V) (bool, error) {
	kb := z.m.serializeKey(k)
	defer z.m.releaseKey(kb)
	vw := core.ValueWriter{N: z.m.valSer.SizeOf(v), Write: func(dst []byte) { z.m.valSer.Serialize(v, dst) }}
	return z.m.s.ShardFor(*kb).PutIfAbsentWriter(*kb, vw)
}

// Remove deletes the mapping for k without returning the old value.
func (z ZeroCopyMap[K, V]) Remove(k K) error {
	kb := z.m.serializeKey(k)
	defer z.m.releaseKey(kb)
	_, err := z.m.s.ShardFor(*kb).Remove(*kb)
	return err
}

// Delete deletes the mapping for k and reports whether it was present —
// Remove with the presence bit, still without copying the old value out
// (the network DEL path wants the count but not the bytes).
func (z ZeroCopyMap[K, V]) Delete(k K) (bool, error) {
	kb := z.m.serializeKey(k)
	defer z.m.releaseKey(kb)
	return z.m.s.ShardFor(*kb).Remove(*kb)
}

// ComputeIfPresent atomically applies f to k's value in place. The
// lambda runs exactly once, under the value's write lock, and may resize
// the value. It must not call into the map: an operation on the same key
// would wait on f itself. Returns false if k is absent.
func (z ZeroCopyMap[K, V]) ComputeIfPresent(k K, f func(OakWBuffer) error) (bool, error) {
	kb := z.m.serializeKey(k)
	defer z.m.releaseKey(kb)
	return z.m.s.ShardFor(*kb).ComputeIfPresent(*kb, func(w *core.WBuffer) error {
		return f(OakWBuffer{w})
	})
}

// PutIfAbsentComputeIfPresent inserts v if k is absent, otherwise
// atomically applies f to the present value in place — the paper's
// replacement for Java's non-atomic merge, used by Druid-style in-situ
// aggregation (§6). f runs under the value's write lock and must not call
// into the map: an operation on the same key would wait on f itself.
func (z ZeroCopyMap[K, V]) PutIfAbsentComputeIfPresent(k K, v V, f func(OakWBuffer) error) error {
	kb := z.m.serializeKey(k)
	defer z.m.releaseKey(kb)
	vw := core.ValueWriter{N: z.m.valSer.SizeOf(v), Write: func(dst []byte) { z.m.valSer.Serialize(v, dst) }}
	return z.m.s.ShardFor(*kb).PutIfAbsentComputeIfPresentWriter(*kb, vw, func(w *core.WBuffer) error {
		return f(OakWBuffer{w})
	})
}
