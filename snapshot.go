package oakmap

import (
	"sync/atomic"

	"oakmap/internal/core"
	"oakmap/sharded"
)

// Op is one operation in an atomic batch: a put of Key→Value, or — when
// Delete is set — a removal of Key (removing an absent key is a no-op).
type Op[K, V any] struct {
	Key    K
	Value  V // ignored when Delete is set
	Delete bool
}

// ApplyBatch applies ops atomically: every concurrent reader, scan and
// snapshot observes either all of the batch's effects or none of them —
// across shards too. Ops are deduplicated by key with the last
// occurrence winning, so a batch is a set of final states, not a replay
// log. An error (allocation failure) rolls the whole batch back.
//
// Atomicity is visibility-atomicity, not serializability against
// individual point writes: a plain Put racing the batch lands either
// entirely before or entirely after it on that key.
func (m *Map[K, V]) ApplyBatch(ops []Op[K, V]) error {
	if len(ops) == 0 {
		return nil
	}
	bops := make([]core.BatchOp, len(ops))
	for i, op := range ops {
		kb := make([]byte, m.keySer.SizeOf(op.Key))
		m.keySer.Serialize(op.Key, kb)
		bops[i].Key = kb
		if op.Delete {
			bops[i].Delete = true
		} else {
			bops[i].Val = m.serializeVal(op.Value)
		}
	}
	return m.s.ApplyBatch(bops)
}

// Snapshot is a read-only, point-in-time view of the map. It is frozen:
// concurrent puts, removes and batches after the snapshot's acquisition
// are invisible to it, and every read within it is mutually consistent
// (a cross-shard batch is either entirely visible or entirely not).
//
// Snapshots are cheap to take — no data is copied up front; overwritten
// and deleted values are retained copy-on-write only while a snapshot
// that can see them stays open. Close every snapshot (defer is the
// idiom; oak-vet's pinbalance check enforces it), or the retained-version
// store and the reclaim horizon grow without bound.
//
// A Snapshot is safe for concurrent use; its iterators are not (one per
// goroutine).
type Snapshot[K, V any] struct {
	m      *Map[K, V]
	bs     *sharded.Snapshot
	closed atomic.Bool
}

// Snapshot acquires a frozen view of the map's current state; the view
// never shifts underneath its reader. A write still in flight when
// Snapshot returns is either outside the view or in it, and then a read
// of its key waits for the write to finish. A key that any read
// (ContainsKey, a scan, PutIfAbsent's refusal) reported present before
// Snapshot was called is in the view. Snapshot waits only for
// atomic batches still undecided, never for plain writes or scans, so it
// may be called from inside any callback.
func (m *Map[K, V]) Snapshot() *Snapshot[K, V] {
	return &Snapshot[K, V]{m: m, bs: m.s.Snapshot()}
}

// Close releases the snapshot, letting retained pre-images drain and
// the reclamation horizon advance. Idempotent; reads after Close are
// invalid.
func (s *Snapshot[K, V]) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.bs.Close()
	}
}

// Get returns a copy of the value mapped to k in the frozen view.
func (s *Snapshot[K, V]) Get(k K) (V, bool) {
	kb := s.m.serializeKey(k)
	defer s.m.releaseKey(kb)
	var out V
	b, ok := s.bs.Get(*kb, nil)
	if !ok {
		return out, false
	}
	return s.m.valSer.Deserialize(b), true
}

// Ascend calls f for each frozen mapping with from ≤ k < to in
// ascending order (nil bounds are open). Returning false stops the
// scan. Unlike live scans, the sequence is atomic: it is exactly the
// map's content at the snapshot's version.
func (s *Snapshot[K, V]) Ascend(from, to *K, f func(k K, v V) bool) {
	s.scan(from, to, false, f)
}

// Descend is Ascend in descending key order.
func (s *Snapshot[K, V]) Descend(from, to *K, f func(k K, v V) bool) {
	s.scan(from, to, true, f)
}

func (s *Snapshot[K, V]) scan(from, to *K, desc bool, f func(k K, v V) bool) {
	s.scanRaw(s.m.boundBytes(from), s.m.boundBytes(to), desc, func(kb, vb []byte) bool {
		return f(s.m.keySer.Deserialize(kb), s.m.valSer.Deserialize(vb))
	})
}

func (s *Snapshot[K, V]) scanRaw(lo, hi []byte, desc bool, yield func(key, val []byte) bool) {
	cur := s.bs.NewCursor(lo, hi, desc)
	for _, kb, _, _, ok := cur.Next(); ok; _, kb, _, _, ok = cur.Next() {
		if !yield(kb, cur.Val()) {
			return
		}
	}
}

// SnapIterator is a pull-style scan over a snapshot's frozen view.
// Advance with Next; not safe for concurrent use.
type SnapIterator[K, V any] struct {
	m   *Map[K, V]
	cur *sharded.Cursor
}

// Iterator creates a pull iterator over the frozen view with
// from ≤ key < to (nil bounds open), ascending or descending. The
// snapshot must stay open for the iterator's lifetime.
func (s *Snapshot[K, V]) Iterator(from, to *K, descending bool) *SnapIterator[K, V] {
	return &SnapIterator[K, V]{
		m:   s.m,
		cur: s.bs.NewCursor(s.m.boundBytes(from), s.m.boundBytes(to), descending),
	}
}

// Next returns the next frozen entry deserialized, or ok=false at the
// end.
func (it *SnapIterator[K, V]) Next() (k K, v V, ok bool) {
	_, kb, _, _, ok := it.cur.Next()
	if !ok {
		return k, v, false
	}
	return it.m.keySer.Deserialize(kb), it.m.valSer.Deserialize(it.cur.Val()), true
}

// GetRaw resolves a pre-serialized key in the frozen view, appending
// the raw value bytes to dst — for layout-aware readers (the druid
// layer's row decoding) that bypass the value serializer.
func (s *Snapshot[K, V]) GetRaw(key, dst []byte) ([]byte, bool) {
	return s.bs.Get(key, dst)
}

// AscendRaw streams the frozen view over serialized bounds lo ≤ k < hi
// without deserializing: key and val are owned by the scan and valid
// only for the duration of the callback. This is the snapshot analogue
// of the zero-copy stream scan, for readers that decode value bytes
// themselves.
func (s *Snapshot[K, V]) AscendRaw(lo, hi []byte, yield func(key, val []byte) bool) {
	s.scanRaw(lo, hi, false, yield)
}

// Stats reports the owning map's live internals (a snapshot freezes the
// mappings, not the allocator or reclamation counters). The MVCC fields
// include this snapshot while it is open.
func (s *Snapshot[K, V]) Stats() Stats { return s.m.Stats() }
