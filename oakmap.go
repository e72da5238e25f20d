// Package oakmap is a Go implementation of Oak — a scalable, concurrent,
// ordered key-value map that self-manages its data off-heap (Meir et al.,
// "Oak: A Scalable Off-Heap Allocated Key-Value Map", PPoPP '20).
//
// Keys and values are serialized into large pointer-free memory blocks
// that the Go garbage collector treats as single opaque objects, so the
// GC cost is independent of the number of mappings. Metadata (a chunk
// list plus a sorted-array index over it) stays on-heap. Two API
// surfaces are offered, mirroring the paper's Table 1:
//
//   - The legacy, ConcurrentNavigableMap-style API on Map[K, V]:
//     object-in/object-out with (de)serialization per call.
//   - The zero-copy API behind Map.ZC(): gets and scans return buffer
//     views (OakRBuffer), updates take in-place lambdas (OakWBuffer) and
//     do not return old values.
//
// All point operations — Get, Put, PutIfAbsent, Remove, ComputeIfPresent,
// PutIfAbsentComputeIfPresent — are linearizable; update lambdas execute
// atomically, exactly once. Each call is one core operation, so an old
// value the legacy Put, Remove or PollFirst/PollLast returns is the one
// that call replaced or removed. Scans are non-atomic, as in the paper.
//
// Keys are ordered by bytes.Compare over their serialized form: the key
// serializer is the one place key order is decided, and every built-in
// serializer preserves its type's natural order.
//
// Setting Options.Shards hash-partitions the map across that many
// independent Oak instances (per-shard arena, epoch domain and chunk
// list) behind the same API: point operations route to one shard, and
// ordered scans merge the per-shard streams back into one globally
// sorted sequence. Sharding trades a small per-scan merge cost for
// eliminating cross-core contention on the hottest structures.
package oakmap

import (
	"runtime"
	"sync"

	"oakmap/internal/arena"
	"oakmap/internal/core"
	"oakmap/sharded"
)

// ErrConcurrentModification is returned by OakRBuffer accessors when the
// underlying mapping was concurrently deleted — the analogue of the
// ConcurrentModificationException described in §2.2.
var ErrConcurrentModification = core.ErrConcurrentModification

// Options configures a Map. The zero value (or nil) gives the paper's
// defaults: 4096-entry chunks, rebalance at 50% unsorted, 100MB blocks
// from the process-wide shared pool, one shard.
type Options struct {
	// ChunkCapacity is the number of entry slots per chunk.
	ChunkCapacity int
	// BlockSize, when non-zero, gives this map a private block pool with
	// the given block size instead of the shared 100MB-block pool. With
	// Shards > 1 the private pool is shared by all shards, so the map's
	// off-heap budget stays global while each shard allocates from it
	// independently.
	BlockSize int
	// Shards, when > 1, hash-partitions the map across that many
	// independent Oak instances. Keys route by a stable hash; ordered
	// scans and navigation queries transparently merge the shards back
	// into one globally sorted view. 0 and 1 mean a single instance.
	Shards int
	// Telemetry, when non-nil, attaches an observability scope to the
	// map: sampled op-latency histograms and the op counts estimated
	// from them, structural gauges and a flight recorder of
	// rebalance/epoch/arena events (see NewTelemetry). Nil — the default
	// — disables telemetry entirely; the hot path then pays a single nil
	// check per operation. With Shards > 1 every shard feeds the same
	// scope and the gauges roll the shards up (plus per-shard breakdowns
	// for imbalance debugging).
	Telemetry *Telemetry
}

// Map is an Oak map from K to V. Create instances with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Map[K, V any] struct {
	// s is the storage engine: Options.Shards hash-partitioned core maps
	// (one by default, which routes without hashing and scans without a
	// merge). Point operations resolve their owning core map once via
	// ShardFor and then speak the core protocol directly; scans and
	// navigation go through the sharded map's merged views.
	s      *sharded.Map
	keySer Serializer[K]
	valSer Serializer[V]

	keyBufs sync.Pool // scratch buffers for serialized keys
}

// New creates an Oak map with the given key/value serializers.
func New[K, V any](keySer Serializer[K], valSer Serializer[V], opts *Options) *Map[K, V] {
	var o Options
	if opts != nil {
		o = *opts
	}
	rec := o.Telemetry.recorder()
	var pool *arena.Pool
	if o.BlockSize > 0 {
		pool = arena.NewPool(o.BlockSize, 0)
		// The shared pool stays uninstrumented: its block events would
		// interleave several maps' lifecycles into one recorder.
		pool.SetTelemetry(rec)
	}
	copts := &core.Options{
		ChunkCapacity: o.ChunkCapacity,
		Pool:          pool,
		Telemetry:     rec,
	}
	m := &Map[K, V]{s: sharded.New(o.Shards, copts), keySer: keySer, valSer: valSer}
	if rec != nil {
		registerGauges(rec, m.s.Shards())
	}
	m.keyBufs.New = func() any { b := make([]byte, 0, 64); return &b }
	return m
}

// serializeKey writes k into a pooled scratch buffer. Callers must call
// releaseKey when done (the core copies key bytes it needs to retain).
func (m *Map[K, V]) serializeKey(k K) *[]byte {
	bp := m.keyBufs.Get().(*[]byte)
	n := m.keySer.SizeOf(k)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	m.keySer.Serialize(k, *bp)
	return bp
}

func (m *Map[K, V]) releaseKey(bp *[]byte) { m.keyBufs.Put(bp) }

func (m *Map[K, V]) serializeVal(v V) []byte {
	buf := make([]byte, m.valSer.SizeOf(v))
	m.valSer.Serialize(v, buf)
	return buf
}

// Len returns the number of mappings (summed across shards).
func (m *Map[K, V]) Len() int { return m.s.Len() }

// Footprint returns the map's total off-heap memory in bytes — the fast
// RAM-footprint estimate the paper calls out as a first-class feature.
func (m *Map[K, V]) Footprint() int64 {
	var n int64
	for _, c := range m.s.Shards() {
		n += c.Footprint()
	}
	return n
}

// LiveBytes returns the off-heap bytes currently holding keys and values.
func (m *Map[K, V]) LiveBytes() int64 {
	var n int64
	for _, c := range m.s.Shards() {
		n += c.LiveBytes()
	}
	return n
}

// NumShards returns the number of independent Oak instances behind the
// map: 1 unless Options.Shards asked for more.
func (m *Map[K, V]) NumShards() int { return m.s.NumShards() }

// Close releases the map's off-heap blocks back to their pool. The map
// and any outstanding buffer views become invalid. Close must not run
// concurrently with any other call on the map.
func (m *Map[K, V]) Close() { m.s.Close() }

// ZC returns the map's zero-copy view (the paper's map.zc()).
func (m *Map[K, V]) ZC() ZeroCopyMap[K, V] { return ZeroCopyMap[K, V]{m} }

// --- Legacy (ConcurrentNavigableMap-style) API: copies on the boundary ---

// Get returns a copy of the value mapped to k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	c := m.s.ShardFor(*kb)
	if h, ok := c.Get(*kb); ok {
		return m.readValue(c, h) // deleted between Get and read: absent
	}
	var zero V
	return zero, false
}

// readValue copies the value behind h out of c, atomically; ok is false
// if the value has been deleted.
func (m *Map[K, V]) readValue(c *core.Map, h core.ValueHandle) (v V, ok bool) {
	err := c.ReadValue(h, func(b []byte) error {
		v = m.valSer.Deserialize(b)
		return nil
	})
	return v, err == nil
}

// Put maps k to v and returns the value it replaced, if any. Unlike the
// zero-copy put, it copies the old value out: one insert-or-update, whose
// update copies the old bytes and sets the new ones under the value's
// write lock, so the value returned is the one this put replaced.
func (m *Map[K, V]) Put(k K, v V) (prev V, replaced bool, err error) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	vb := m.serializeVal(v)
	err = m.s.ShardFor(*kb).PutIfAbsentComputeIfPresent(*kb, vb, func(w *core.WBuffer) error {
		prev, replaced = m.valSer.Deserialize(w.Bytes()), true
		return w.Set(vb)
	})
	if err != nil {
		var zero V
		return zero, false, err
	}
	return prev, replaced, nil
}

// PutIfAbsent inserts k→v if k is absent. When the key is present, the
// current value is returned (copied), like Java's putIfAbsent.
func (m *Map[K, V]) PutIfAbsent(k K, v V) (existing V, inserted bool, err error) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	vb := m.serializeVal(v)
	c := m.s.ShardFor(*kb)
	for {
		ins, perr := c.PutIfAbsent(*kb, vb)
		if perr != nil {
			return existing, false, perr
		}
		if ins {
			return existing, true, nil
		}
		if h, ok := c.Get(*kb); ok {
			if out, ok := m.readValue(c, h); ok {
				return out, false, nil
			}
		}
		// Removed in between; retry.
	}
}

// Remove deletes the mapping for k, returning the removed value: the
// bytes are copied out under the value's write lock, just before the
// delete, so the value returned is the one this remove took out.
func (m *Map[K, V]) Remove(k K) (prev V, removed bool, err error) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	return m.removeKey(*kb)
}

// removeKey is Remove over a serialized key.
func (m *Map[K, V]) removeKey(key []byte) (prev V, removed bool, err error) {
	removed, err = m.s.ShardFor(key).RemoveWith(key, func(b []byte) { prev = m.valSer.Deserialize(b) })
	return prev, removed, err
}

// ComputeIfPresent atomically replaces k's value with f(current value).
// Unlike Java's non-atomic computeIfPresent, the update is atomic: f is
// applied exactly once, under the value's write lock. f must not call
// into the map: an operation on the same key would wait on f itself.
func (m *Map[K, V]) ComputeIfPresent(k K, f func(V) V) (bool, error) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	return m.s.ShardFor(*kb).ComputeIfPresent(*kb, func(w *core.WBuffer) error {
		nv := f(m.valSer.Deserialize(w.Bytes()))
		return w.Set(m.serializeVal(nv))
	})
}

// Merge inserts v if k is absent, else atomically replaces the value
// with f(current) — Java's merge, with Oak's stronger atomicity. f runs
// under the value's write lock and must not call into the map: an
// operation on the same key would wait on f itself.
func (m *Map[K, V]) Merge(k K, v V, f func(V) V) error {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	vb := m.serializeVal(v)
	return m.s.ShardFor(*kb).PutIfAbsentComputeIfPresent(*kb, vb, func(w *core.WBuffer) error {
		nv := f(m.valSer.Deserialize(w.Bytes()))
		return w.Set(m.serializeVal(nv))
	})
}

// Range calls f for each mapping with from ≤ k < to in ascending order,
// deserializing both key and value (the legacy scan). Nil bounds are
// open. Returning false stops the scan. With shards the per-shard
// streams arrive merged: f still sees one globally ascending sequence.
func (m *Map[K, V]) Range(from, to *K, f func(k K, v V) bool) { m.rangeScan(from, to, false, f) }

// RangeDescending is Range in descending key order.
func (m *Map[K, V]) RangeDescending(from, to *K, f func(k K, v V) bool) {
	m.rangeScan(from, to, true, f)
}

func (m *Map[K, V]) rangeScan(from, to *K, desc bool, f func(k K, v V) bool) {
	m.scan(from, to, desc, func(src *core.Map, key []byte, _ uint64, h core.ValueHandle) bool {
		v, ok := m.readValue(src, h)
		if !ok {
			return true // deleted mid-scan: skip
		}
		return f(m.keySer.Deserialize(key), v)
	})
}

// scan streams the entries with from ≤ key < to in either direction.
// key is valid for the duration of the callback only — arena bytes under
// the scan's epoch pin with one shard, the merge cursor's owned copy with
// several; retainable views must go through (src, keyRef, h), which
// re-validate under src's pin on every read.
func (m *Map[K, V]) scan(from, to *K, desc bool, yield sharded.EntryFunc) {
	// The bounds live only as long as the scan, so they take their bytes
	// from the key pool.
	var lo, hi []byte
	if from != nil {
		kb := m.serializeKey(*from)
		defer m.releaseKey(kb)
		lo = *kb
	}
	if to != nil {
		kb := m.serializeKey(*to)
		defer m.releaseKey(kb)
		hi = *kb
	}
	if desc {
		m.s.Descend(lo, hi, yield)
	} else {
		m.s.Ascend(lo, hi, yield)
	}
}

func (m *Map[K, V]) boundBytes(k *K) []byte {
	if k == nil {
		return nil
	}
	buf := make([]byte, m.keySer.SizeOf(*k))
	m.keySer.Serialize(*k, buf)
	return buf
}

// --- Navigation queries ---

// FirstKey returns the smallest key.
func (m *Map[K, V]) FirstKey() (K, bool) { return m.keyOf(m.s.First()) }

// LastKey returns the greatest key.
func (m *Map[K, V]) LastKey() (K, bool) { return m.keyOf(m.s.Last()) }

// FloorKey returns the greatest key ≤ k.
func (m *Map[K, V]) FloorKey(k K) (K, bool) { return m.navKey(m.s.Floor, k) }

// CeilingKey returns the smallest key ≥ k.
func (m *Map[K, V]) CeilingKey(k K) (K, bool) { return m.navKey(m.s.Ceiling, k) }

// LowerKey returns the greatest key < k.
func (m *Map[K, V]) LowerKey(k K) (K, bool) { return m.navKey(m.s.Lower, k) }

// HigherKey returns the smallest key > k.
func (m *Map[K, V]) HigherKey(k K) (K, bool) { return m.navKey(m.s.Higher, k) }

func (m *Map[K, V]) navKey(nav func([]byte) ([]byte, bool), k K) (K, bool) {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	return m.keyOf(nav(*kb))
}

// keyOf deserializes a navigation result's key: an owned copy made under
// the pin that found the mapping live, so a mapping deleted since is
// reported from its own bytes, never from recycled ones.
func (m *Map[K, V]) keyOf(key []byte, ok bool) (K, bool) {
	if !ok {
		var zero K
		return zero, false
	}
	return m.keySer.Deserialize(key), true
}

// Stats exposes internal counters for observability and experiments.
// For a sharded map the counters are rolled up: sums for sizes and
// totals, the maximum for Epoch (domains advance independently), and a
// footprint-weighted mean for Fragmentation. ShardStats exposes the
// per-shard breakdown.
type Stats struct {
	Len         int
	Footprint   int64
	LiveBytes   int64
	Rebalances  int64
	Chunks      int
	HeaderCount uint64
	// KeyLeakBytes is always 0: a rebalance retires dead keys through
	// the epoch domain. It is kept for readers that gate on it.
	KeyLeakBytes int64
	// MetaBytes is the chunks' on-heap cost: entries arrays, the sorted
	// prefixes' key-prefix search arrays, and the lcp and minKey copies.
	MetaBytes int64
	// Shards is the number of independent Oak instances rolled into this
	// snapshot (1 for an unsharded map).
	Shards int
	// FreeSpans and Fragmentation summarize the allocator's free
	// structures: parked spans awaiting reuse, and free-list bytes as a
	// fraction of the footprint.
	FreeSpans     int
	Fragmentation float64
	// Epoch, PinnedReaders, LimboItems and LimboBytes snapshot the
	// epoch-based reclamation domain: the current global epoch, how many
	// readers are pinned, and the deferred-free backlog awaiting its
	// grace period.
	Epoch         uint64
	PinnedReaders int
	LimboItems    int
	LimboBytes    int64
	// OpenSnapshots, RetainedBytes, RetainedSpans and HorizonLag snapshot
	// the MVCC layer: open Snapshot views (the maximum across shards — a
	// cross-shard snapshot registers once per shard), the copy-on-write
	// pre-image store they pin, and how far the version clock has run
	// ahead of the oldest open snapshot (worst shard).
	OpenSnapshots int64
	RetainedBytes int64
	RetainedSpans int64
	HorizonLag    uint64
}

// statsOf snapshots one core map into the public Stats shape.
func statsOf(c *core.Map) Stats {
	as := c.ArenaStats()
	rs := c.ReclaimStats()
	ms := c.MVCCStats()
	occ := c.Occupancy()
	return Stats{
		Len:           c.Len(),
		Footprint:     c.Footprint(),
		LiveBytes:     c.LiveBytes(),
		Rebalances:    c.Rebalances(),
		Chunks:        occ.Chunks,
		MetaBytes:     occ.MetaBytes,
		HeaderCount:   c.HeaderCount(),
		Shards:        1,
		FreeSpans:     as.FreeSpans,
		Fragmentation: as.Fragmentation,
		Epoch:         rs.Epoch,
		PinnedReaders: rs.Pinned,
		LimboItems:    rs.LimboItems,
		LimboBytes:    rs.LimboBytes,
		OpenSnapshots: ms.OpenSnapshots,
		RetainedBytes: ms.RetainedBytes,
		RetainedSpans: ms.RetainedSpans,
		HorizonLag:    ms.HorizonLag,
	}
}

// Stats returns a snapshot of the map's internals.
//
// The snapshot is weak: each field is read atomically, but the fields
// are read at slightly different instants, so under concurrent load
// they may not describe any single moment — e.g. LiveBytes can include
// an allocation whose entry Len has not counted yet, and LimboBytes can
// disagree with a drain that completed between the two reads. Weak
// snapshots never tear an individual field and are cheap enough for hot
// polling loops. Tests and invariant checks that compare fields against
// each other should use StatsConsistent instead.
func (m *Map[K, V]) Stats() Stats {
	var agg Stats
	per := m.ShardStats()
	for _, s := range per {
		agg.Len += s.Len
		agg.Footprint += s.Footprint
		agg.LiveBytes += s.LiveBytes
		agg.Rebalances += s.Rebalances
		agg.Chunks += s.Chunks
		agg.MetaBytes += s.MetaBytes
		agg.HeaderCount += s.HeaderCount
		agg.Shards++
		agg.FreeSpans += s.FreeSpans
		if s.Epoch > agg.Epoch {
			agg.Epoch = s.Epoch
		}
		agg.PinnedReaders += s.PinnedReaders
		agg.LimboItems += s.LimboItems
		agg.LimboBytes += s.LimboBytes
		if s.OpenSnapshots > agg.OpenSnapshots {
			agg.OpenSnapshots = s.OpenSnapshots
		}
		agg.RetainedBytes += s.RetainedBytes
		agg.RetainedSpans += s.RetainedSpans
		if s.HorizonLag > agg.HorizonLag {
			agg.HorizonLag = s.HorizonLag
		}
	}
	agg.Fragmentation = rollupFragmentation(len(per), func(i int) (float64, int64) {
		return per[i].Fragmentation, per[i].Footprint
	})
	return agg
}

// rollupFragmentation is the one cross-shard rule for the arena
// fragmentation ratio, shared by Stats and the
// oak_arena_fragmentation_ratio gauge: free-list bytes over footprint,
// summed over the shards, so each shard's ratio weighs by its footprint.
// It is 0 while no shard holds a block.
func rollupFragmentation(n int, shard func(i int) (frag float64, footprint int64)) float64 {
	var free, footprint float64
	for i := 0; i < n; i++ {
		f, fp := shard(i)
		free += f * float64(fp)
		footprint += float64(fp)
	}
	if footprint == 0 {
		return 0
	}
	return free / footprint
}

// ShardStats returns one Stats snapshot per shard, index-stable; a
// single-element slice for an unsharded map. Use it to spot routing
// imbalance or a shard whose reclamation is lagging.
func (m *Map[K, V]) ShardStats() []Stats {
	shards := m.s.Shards()
	out := make([]Stats, len(shards))
	for i, c := range shards {
		out[i] = statsOf(c)
	}
	return out
}

// Quiesce cycles the reclamation epoch until the deferred-free limbo
// drains on every shard, reporting whether all emptied (false means a
// reader stayed pinned somewhere). Useful before footprint assertions
// and in tests.
func (m *Map[K, V]) Quiesce() bool { return m.s.Quiesce() }

// StatsConsistent returns a mutually consistent snapshot of the map's
// internals: it quiesces reclamation, then re-reads Stats until two
// consecutive reads are identical — at that point no counter moved
// between the first field read and the last, so the fields describe one
// moment and can be compared against each other (LiveBytes vs
// Footprint, LimboItems == 0, ...). For a sharded map the fixpoint
// covers every shard: no counter on any shard moved during the read.
//
// ok is false when consistency could not be established: either the
// limbo would not drain (a reader stayed pinned) or concurrent mutators
// kept the counters moving for every retry. The last snapshot read is
// still returned. Call it only from quiescent-ish moments (test
// barriers, shutdown); under sustained load it degrades to a weak
// snapshot with ok=false.
func (m *Map[K, V]) StatsConsistent() (Stats, bool) {
	drained := m.s.Quiesce()
	prev := m.Stats()
	for i := 0; i < 16; i++ {
		cur := m.Stats()
		if cur == prev {
			return cur, drained
		}
		prev = cur
		runtime.Gosched()
	}
	return prev, false
}

// ContainsKey reports whether k is mapped.
func (m *Map[K, V]) ContainsKey(k K) bool {
	kb := m.serializeKey(k)
	defer m.releaseKey(kb)
	_, ok := m.s.ShardFor(*kb).Get(*kb)
	return ok
}

// PollFirst atomically removes and returns the smallest entry — the
// remaining ConcurrentNavigableMap surface. It removes the key First
// found, as Remove does, and retries when another remover got there
// first, so concurrent pollers each receive distinct entries.
func (m *Map[K, V]) PollFirst() (k K, v V, ok bool, err error) { return m.poll(m.s.First) }

// PollLast atomically removes and returns the greatest entry.
func (m *Map[K, V]) PollLast() (k K, v V, ok bool, err error) { return m.poll(m.s.Last) }

func (m *Map[K, V]) poll(end func() ([]byte, bool)) (k K, v V, ok bool, err error) {
	for {
		key, found := end()
		if !found {
			return k, v, false, nil
		}
		if v, ok, err = m.removeKey(key); err != nil {
			return k, v, false, err
		}
		if ok {
			return m.keySer.Deserialize(key), v, true, nil
		}
		// Another remover took the key first: retry at the new end.
	}
}
