package oakmap

import (
	"sync"

	"oakmap/internal/core"
)

// Zero-copy scans (§2.2). Two flavours are provided, as in the paper:
//
//   - Set-style scans (Ascend/Descend) create a fresh ephemeral
//     OakRBuffer pair per yielded entry — the view objects may be
//     retained by the callback.
//   - Stream-style scans (AscendStream/DescendStream) reuse ONE key view
//     and ONE value view for the entire scan, eliminating per-entry
//     allocation. The views' contents change on every step, so callbacks
//     must not retain them — the paper's documented non-standard
//     semantics for the stream API.
//
// All scans are non-atomic: concurrently inserted or removed keys may or
// may not be observed, but a key present throughout the scan is yielded
// exactly once. On a sharded map the per-shard streams are merged back
// into one globally ordered sequence; the same guarantees hold globally.

// Ascend scans mappings with from ≤ key < to in ascending order (nil
// bounds are open), creating fresh buffer views per entry.
func (z ZeroCopyMap[K, V]) Ascend(from, to *K, f func(key, value *OakRBuffer) bool) {
	z.views(from, to, false, false, f)
}

// Descend scans mappings with from ≤ key < to in descending order using
// Oak's chunk-stack descending iterator (§4.2).
func (z ZeroCopyMap[K, V]) Descend(from, to *K, f func(key, value *OakRBuffer) bool) {
	z.views(from, to, true, false, f)
}

// AscendStream is Ascend with the stream API: the same two view objects
// are re-filled for every entry.
//
// Stream key views read the scan's own key slice directly (no handle
// validation): the scan guarantees those bytes for exactly the
// callback's duration — the one-shard scan's epoch pin keeps arena key
// bytes alive, and the merged scan hands out its cursor-owned copy — so
// a key read never spuriously fails when the entry is removed
// concurrently mid-callback. (Value views still fail with
// ErrConcurrentModification after a delete — the value's space is
// released under its own lock protocol, not the scan pin.)
func (z ZeroCopyMap[K, V]) AscendStream(from, to *K, f func(key, value *OakRBuffer) bool) {
	z.views(from, to, false, true, f)
}

// DescendStream is Descend with the stream API.
func (z ZeroCopyMap[K, V]) DescendStream(from, to *K, f func(key, value *OakRBuffer) bool) {
	z.views(from, to, true, true, f)
}

// Keys scans keys only (ascending), with fresh views.
func (z ZeroCopyMap[K, V]) Keys(from, to *K, f func(key *OakRBuffer) bool) {
	z.views(from, to, false, false, func(k, _ *OakRBuffer) bool { return f(k) })
}

// Values scans values only (ascending), with fresh views.
func (z ZeroCopyMap[K, V]) Values(from, to *K, f func(value *OakRBuffer) bool) {
	z.views(from, to, false, false, func(_, v *OakRBuffer) bool { return f(v) })
}

// KeysStream is Keys with the stream API: one reused key view.
func (z ZeroCopyMap[K, V]) KeysStream(from, to *K, f func(key *OakRBuffer) bool) {
	z.views(from, to, false, true, func(k, _ *OakRBuffer) bool { return f(k) })
}

// ValuesStream is Values with the stream API: one reused value view.
func (z ZeroCopyMap[K, V]) ValuesStream(from, to *K, f func(value *OakRBuffer) bool) {
	z.views(from, to, false, true, func(_, v *OakRBuffer) bool { return f(v) })
}

// viewPair is an entry's key and value views, allocated together.
type viewPair struct{ key, val OakRBuffer }

// set points the pair at an entry. Stream key views borrow the scan's
// key slice; retainable ones re-validate through (src, keyRef, h).
func (p *viewPair) set(stream bool, src *core.Map, key []byte, keyRef uint64, h core.ValueHandle) {
	if stream {
		p.key.view = key
	} else {
		p.key = OakRBuffer{m: src, keyRef: keyRef, h: h}
	}
	p.val.m, p.val.h = src, h
}

// streamPairs recycles the stream scans' reused view pairs: the views
// are valid only inside the callback, so the pair is free once the scan
// returns.
var streamPairs = sync.Pool{New: func() any { return new(viewPair) }}

// views is the one zero-copy scan body: a fresh view pair per entry, or
// with stream one pair re-filled for every entry.
func (z ZeroCopyMap[K, V]) views(from, to *K, desc, stream bool, f func(key, value *OakRBuffer) bool) {
	var reused *viewPair
	if stream {
		reused = streamPairs.Get().(*viewPair)
		defer func() {
			*reused = viewPair{}
			streamPairs.Put(reused)
		}()
	}
	z.m.scan(from, to, desc, func(src *core.Map, key []byte, keyRef uint64, h core.ValueHandle) bool {
		p := reused
		if p == nil {
			p = &viewPair{}
		}
		p.set(stream, src, key, keyRef, h)
		return f(&p.key, &p.val)
	})
}

// SubMap is a restricted view of a map covering from ≤ key < to (the
// ConcurrentNavigableMap subMap). A nil bound is open.
type SubMap[K, V any] struct {
	m        *Map[K, V]
	from, to *K
}

// SubMap returns a view restricted to [from, to).
func (m *Map[K, V]) SubMap(from, to *K) SubMap[K, V] {
	return SubMap[K, V]{m: m, from: from, to: to}
}

// HeadMap returns a view of keys < to.
func (m *Map[K, V]) HeadMap(to K) SubMap[K, V] { return SubMap[K, V]{m: m, to: &to} }

// TailMap returns a view of keys ≥ from.
func (m *Map[K, V]) TailMap(from K) SubMap[K, V] { return SubMap[K, V]{m: m, from: &from} }

// Range iterates the sub-map ascending with deserialized entries.
func (s SubMap[K, V]) Range(f func(k K, v V) bool) { s.m.Range(s.from, s.to, f) }

// RangeDescending iterates the sub-map descending.
func (s SubMap[K, V]) RangeDescending(f func(k K, v V) bool) {
	s.m.RangeDescending(s.from, s.to, f)
}

// Len counts the sub-map's entries (O(n) over the range).
func (s SubMap[K, V]) Len() int {
	n := 0
	s.m.Range(s.from, s.to, func(K, V) bool { n++; return true })
	return n
}

// ZC returns the zero-copy view of the sub-map's range.
func (s SubMap[K, V]) ZC() ZeroCopySubMap[K, V] {
	return ZeroCopySubMap[K, V]{z: s.m.ZC(), from: s.from, to: s.to}
}

// ZeroCopySubMap offers the zero-copy scans over a restricted range.
type ZeroCopySubMap[K, V any] struct {
	z        ZeroCopyMap[K, V]
	from, to *K
}

// Ascend scans the range ascending with fresh views.
func (s ZeroCopySubMap[K, V]) Ascend(f func(key, value *OakRBuffer) bool) {
	s.z.Ascend(s.from, s.to, f)
}

// Descend scans the range descending with fresh views.
func (s ZeroCopySubMap[K, V]) Descend(f func(key, value *OakRBuffer) bool) {
	s.z.Descend(s.from, s.to, f)
}

// AscendStream scans the range ascending with reused views.
func (s ZeroCopySubMap[K, V]) AscendStream(f func(key, value *OakRBuffer) bool) {
	s.z.AscendStream(s.from, s.to, f)
}

// DescendStream scans the range descending with reused views.
func (s ZeroCopySubMap[K, V]) DescendStream(f func(key, value *OakRBuffer) bool) {
	s.z.DescendStream(s.from, s.to, f)
}
