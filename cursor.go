package oakmap

import "oakmap/sharded"

// Iterator is a pull-style zero-copy scan: the Go rendering of the
// iterators behind the paper's keySet()/entrySet() views. Obtain one
// from ZeroCopyMap.Iterator; advance with Next. Iterators are not safe
// for concurrent use by multiple goroutines (create one per goroutine),
// but the map may be mutated concurrently — the usual non-atomic scan
// guarantees apply. On a sharded map the iterator pulls from the k-way
// merge cursor, so entries arrive in global key order.
type Iterator[K, V any] struct {
	cur    *sharded.Cursor
	m      *Map[K, V]
	stream bool
	reused viewPair // re-filled per entry when stream is true
}

// Iterator creates a pull iterator over from ≤ key < to (nil bounds are
// open), ascending or descending. With stream=true the iterator reuses
// one pair of buffer views across all entries (the paper's stream scan
// semantics: do not retain the views).
func (z ZeroCopyMap[K, V]) Iterator(from, to *K, descending, stream bool) *Iterator[K, V] {
	lo, hi := z.m.boundBytes(from), z.m.boundBytes(to)
	return &Iterator[K, V]{
		cur:    z.m.s.NewCursor(lo, hi, descending),
		m:      z.m,
		stream: stream,
	}
}

// Next returns views of the next entry, or ok=false at the end. Stream
// key views read the cursor's owned key copy, valid until the next Next.
func (it *Iterator[K, V]) Next() (key, value *OakRBuffer, ok bool) {
	src, kbytes, kr, h, ok := it.cur.Next()
	if !ok {
		return nil, nil, false
	}
	p := &it.reused
	if !it.stream {
		p = &viewPair{}
	}
	p.set(it.stream, src, kbytes, kr, h)
	return &p.key, &p.val, true
}

// NextEntry returns the next entry deserialized (a convenience for
// legacy-style consumption of a pull iterator). Entries whose value was
// deleted between the cursor step and the read are skipped.
func (it *Iterator[K, V]) NextEntry() (k K, v V, ok bool) {
	for {
		src, kbytes, _, h, cok := it.cur.Next()
		if !cok {
			return k, v, false
		}
		if v, ok = it.m.readValue(src, h); ok {
			return it.m.keySer.Deserialize(kbytes), v, true
		}
		// Deleted between the cursor step and the read: skip.
	}
}
