// Package core implements the Oak algorithm (§4) over serialized []byte
// keys and values: a linked list of chunks indexed by a copy-on-write
// sorted array of their minKeys, with keys and values allocated off-heap
// (in arena blocks) and all metadata on-heap (§3.1).
//
// The package operates below (de)serialization: the public generic API in
// package oakmap wraps it. Keys are ordered by bytes.Compare; a key
// type's order is its serializer's business. Values are identified by
// handles — generation-tagged slots of a vheader.Table whose headers
// carry the concurrency-control word and the value's current data
// reference (§3.3).
package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/epoch"
	"oakmap/internal/telemetry"
	"oakmap/internal/vheader"
)

// Errors returned by map operations.
var (
	// ErrConcurrentModification is returned when a buffer view observes
	// that its mapping was deleted — the Go analogue of the paper's
	// ConcurrentModificationException for reads of removed values.
	ErrConcurrentModification = errors.New("oak: value concurrently deleted")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("oak: map closed")
)

// Options configures a core map.
type Options struct {
	// ChunkCapacity is the entries-array size per chunk (paper: 4096).
	ChunkCapacity int
	// Pool supplies off-heap blocks; nil uses arena.DefaultPool().
	Pool *arena.Pool
	// Telemetry, when non-nil, receives op-latency samples, structural
	// events, and span timings from the map and its allocator/epoch
	// domain. Nil (the default) disables all recording; the residual
	// cost is a nil check per instrumented site.
	Telemetry *telemetry.Recorder
}

func (o *Options) withDefaults() Options {
	v := Options{}
	if o != nil {
		v = *o
	}
	if v.ChunkCapacity <= 0 {
		v.ChunkCapacity = chunk.DefaultCapacity
	}
	if v.Pool == nil {
		v.Pool = arena.DefaultPool()
	}
	return v
}

// Map is the core Oak KV-map over serialized keys and values.
type Map struct {
	opts    Options
	alloc   *arena.Allocator
	headers *vheader.Table
	reclaim *epoch.Domain
	head    atomic.Pointer[chunk.Chunk]
	closed  atomic.Bool

	// index is the chunk index (index.go); rebalances replace it whole,
	// one publisher at a time, and lookups load it without the lock.
	index   atomic.Pointer[chunkIndex] //oak:guarded-by indexMu
	indexMu sync.Mutex

	// tel is the optional telemetry recorder (nil = disabled); set once
	// at construction, so instrumented paths read it without atomics.
	tel *telemetry.Recorder

	// mvcc is the map's version clock, snapshot registry, and retained-
	// version store (see mvcc.go).
	mvcc mvccState

	// size/rebalances are sharded counters: size moves on every
	// put/remove from every worker, and a single atomic word was the
	// map's hottest shared cache line after the chunk metadata itself.
	size       telemetry.Counter
	rebalances telemetry.Counter // total rebalance operations performed
}

// New creates an empty map.
func New(o *Options) *Map {
	opts := o.withDefaults()
	m := &Map{
		opts:    opts,
		alloc:   arena.NewAllocator(opts.Pool),
		headers: vheader.NewTable(),
		tel:     opts.Telemetry,
	}
	m.indexMu.Lock() // uncontended: kept for the guarded-by proof
	m.index.Store(&chunkIndex{})
	m.indexMu.Unlock()
	m.mvcc.init()
	m.alloc.SetTelemetry(opts.Telemetry)
	// A retired resource is an arena span (key or value space) or a value
	// header. Drains are serialized, so the header batch is reused.
	var hs []uint64
	m.reclaim = epoch.NewDomain(func(items []epoch.Retired) {
		for _, r := range items {
			if r.Kind == retiredHeader {
				hs = append(hs, r.Val)
				continue
			}
			m.alloc.Free(arena.Ref(r.Val))
		}
		m.headers.Free(hs)
		hs = hs[:0]
	})
	m.reclaim.SetTelemetry(opts.Telemetry)
	// The head sentinel chunk has minKey nil (-infinity) and is a real
	// data chunk; it is replaced, never removed, by rebalances.
	m.head.Store(chunk.New(nil, opts.ChunkCapacity, m.alloc, nil))
	return m
}

// Kinds of retired resources.
const (
	retiredSpan   uint8 = iota // an arena.Ref
	retiredHeader              // a ValueHandle
)

// retire hands a span whose last reference was just unlinked to the
// epoch domain: it returns to Allocator.Free once no reader pinned
// before the unlink can still hold it.
func (m *Map) retire(ref arena.Ref) {
	m.reclaim.Retire(epoch.Retired{Kind: retiredSpan, Val: uint64(ref)}, int64(ref.Len()))
}

// retireHeader hands a deleted value's header to the epoch domain at the
// point where its last chunk-entry reference went: the CAS that cleared
// or reused the entry, a rebalance dropping it, or the discard of a value
// that never reached an entry. Once no reader pinned before that point
// remains, vheader.Table.Free advances the slot's generation and recycles
// it, so any handle still held elsewhere reads as deleted.
func (m *Map) retireHeader(h ValueHandle) {
	m.reclaim.Retire(epoch.Retired{Kind: retiredHeader, Val: uint64(h)}, 0)
}

// ReclaimStats exposes the epoch domain's snapshot: current epoch,
// pinned readers, and limbo depth.
func (m *Map) ReclaimStats() epoch.Stats { return m.reclaim.Stats() }

// QuiesceReclaim drains the deferred-reclamation limbo by cycling the
// epoch; it reports whether the limbo emptied (false means a reader
// stayed pinned throughout). Useful before footprint assertions and at
// orderly shutdown.
func (m *Map) QuiesceReclaim() bool { return m.reclaim.Quiesce() }

// Len returns the number of live key-value pairs. Under concurrency the
// value is linearizable only in quiescent states, like size() in Java's
// concurrent maps.
func (m *Map) Len() int { return int(m.size.Load()) }

// Footprint returns the total off-heap bytes held by the map's allocator.
// The paper highlights cheap RAM-footprint estimation as a first-class
// feature (§1.1).
func (m *Map) Footprint() int64 { return m.alloc.Footprint() }

// LiveBytes returns the currently allocated off-heap bytes (keys, values,
// and free-list slack excluded).
func (m *Map) LiveBytes() int64 { return m.alloc.LiveBytes() }

// ArenaStats exposes the allocator's accounting snapshot.
func (m *Map) ArenaStats() arena.Stats { return m.alloc.Stats() }

// Rebalances returns the number of chunk rebalances performed.
func (m *Map) Rebalances() int64 { return m.rebalances.Load() }

// HeaderCount returns the number of value headers in use: live values,
// deleted ones still linked in a chunk, and retired ones awaiting their
// grace period. Freed headers are recycled, so it tracks the live keys,
// not the values ever created.
func (m *Map) HeaderCount() uint64 { return m.headers.Count() }

// NumChunks counts the chunks currently in the list.
func (m *Map) NumChunks() int {
	n := 0
	for c := m.head.Load(); c != nil; c = chunk.Forward(c).Next() {
		n++
	}
	return n
}

// Close releases all off-heap blocks back to the pool. The map must not
// be used afterwards, nor concurrently with Close: an operation still in
// flight could write into a block already handed to another map — a
// value it copies in, or the free-list link of a span it frees.
func (m *Map) Close() {
	if m.closed.CompareAndSwap(false, true) {
		// Drain the limbo so accounting is clean before the blocks go
		// back to the pool.
		m.reclaim.Quiesce()
		m.alloc.Close()
	}
}

// walk is the one chunk location procedure (§3.1, §4.2): it queries the
// (possibly outdated) index and completes with a partial traversal of the
// chunk list, following Next and ReplacedBy forwarding. It returns the
// last chunk whose minKey is ≤ key — < key when strict — and the final
// chunk when key is nil (+∞ here). A successor whose minKey is nil is the
// head's replacement seen through forwarding: a strict walk steps onto
// it, a non-strict one stops before it.
func (m *Map) walk(key []byte, strict bool) *chunk.Chunk {
	x := m.index.Load()
	var c *chunk.Chunk
	switch {
	case key == nil:
		c = x.last()
	case strict:
		c = x.lower(key)
	default:
		c = x.floor(key)
	}
	if c == nil {
		c = m.head.Load()
	}
	stop := 1 // a successor whose minKey compares ≥ stop to key ends the walk
	if strict {
		stop = 0
	}
	c = chunk.Forward(c)
	for n := c.Next(); n != nil; n = c.Next() {
		n = chunk.Forward(n)
		if nk := n.MinKey(); key != nil && (nk == nil && !strict || nk != nil && bytes.Compare(nk, key) >= stop) {
			break
		}
		c = n
	}
	return c
}

// locateChunk returns the chunk whose range includes key. A nil key is
// the empty key here, not walk's +∞.
func (m *Map) locateChunk(key []byte) *chunk.Chunk {
	if key == nil {
		key = []byte{}
	}
	return m.walk(key, false)
}

// prevChunk returns the chunk preceding (in key order) a chunk whose
// minKey is given, or nil when minKey is nil (the head chunk has no
// predecessor) — the descending scan's step back and a rebalance's
// predecessor.
func (m *Map) prevChunk(minKey []byte) *chunk.Chunk {
	if minKey == nil {
		return nil
	}
	return m.walk(minKey, true)
}

// retryPause yields the processor on long retry chains (e.g. while a
// rebalance is in flight on a hot chunk).
func retryPause(attempt int) {
	if attempt > 4 {
		runtime.Gosched()
	}
}

// OccupancyStats summarizes the chunk population — the observability
// counterpart of the paper's data-organization claims (§3.1): how full
// the sorted prefixes are, how long the unsorted suffixes have grown.
type OccupancyStats struct {
	Chunks         int
	Entries        int // allocated entry slots across chunks
	Sorted         int // entries in sorted prefixes
	Live           int // heuristic live entries
	MinLive        int
	MaxLive        int
	AvgUtilization float64 // live entries / total capacity
	// MetaBytes is the on-heap cost of the chunks — entries arrays, prefix
	// search arrays and their line summaries, and the lcp and minKey
	// copies — and of the chunk index's arrays.
	MetaBytes int64
}

// Occupancy walks the chunk list and returns its population statistics.
func (m *Map) Occupancy() OccupancyStats {
	st := OccupancyStats{MinLive: int(^uint(0) >> 1), MetaBytes: m.index.Load().metaBytes()}
	capTotal := 0
	for c := m.head.Load(); c != nil; {
		c = chunk.Forward(c)
		st.Chunks++
		st.Entries += c.Allocated()
		st.Sorted += c.SortedCount()
		live := c.Live()
		st.Live += live
		if live < st.MinLive {
			st.MinLive = live
		}
		if live > st.MaxLive {
			st.MaxLive = live
		}
		capTotal += c.Capacity()
		st.MetaBytes += int64(c.MetaBytes())
		c = c.Next()
	}
	if st.Chunks == 0 {
		st.MinLive = 0
	}
	if capTotal > 0 {
		st.AvgUtilization = float64(st.Live) / float64(capTotal)
	}
	return st
}
