package arena

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"oakmap/internal/faultpoint"
	"oakmap/internal/telemetry"
)

// Allocation errors.
var (
	ErrTooLarge  = errors.New("arena: allocation exceeds block size")
	ErrClosed    = errors.New("arena: allocator closed")
	ErrExhausted = errors.New("arena: allocator out of blocks")
	// ErrInjected is returned by Alloc when the arena/alloc-fail fault
	// point fires; it never occurs outside fault-injection runs.
	ErrInjected = errors.New("arena: injected allocation failure")
)

// Fault-injection points (no-ops unless a test arms them).
var (
	// FpAllocFail makes Alloc fail with ErrInjected, exercising the
	// callers' allocation-error unwind paths (key release, value
	// discard) that real workloads reach only at memory exhaustion.
	FpAllocFail = faultpoint.New("arena/alloc-fail")
	// FpFreeListScan is hit at the start of every first-fit scan of the
	// large-span list, under its lock: a pausing hook widens the lock hold
	// to force free-list contention.
	FpFreeListScan = faultpoint.New("arena/freelist-scan")
	// FpCoalesce is hit each time two adjacent free spans merge (large-
	// list insert and compact), under the owning lock: pausing here
	// stretches the coalescing window against concurrent alloc/free.
	FpCoalesce = faultpoint.New("arena/coalesce")
	// FpClassMigrate is hit when a span changes lists: a split remainder
	// re-parked after a pop, or a large span carved below largeMin moving
	// to a size class. The span is privately held at that instant, so a
	// pause here strands it from every allocation path — the window where
	// concurrent allocs must fall through to other spans or the bump
	// pointer rather than spin.
	FpClassMigrate = faultpoint.New("arena/class-migrate")
)

// span is a free range inside a block, kept on one of the allocator's
// free structures.
type span struct {
	block  int
	offset int
	length int
}

// Allocator carves variable-size ranges out of pool blocks on behalf of
// a single map instance. It is the paper's per-instance memory manager,
// rebuilt around segregated size-class free lists: fresh space comes
// from a bump pointer in the current block, freed space is parked on
// power-of-two size-class LIFOs with per-class locks (plus one
// address-ordered coalescing list for spans ≥ largeMin) and reused on the
// next fitting allocation, so traffic in different classes never shares a
// lock.
//
// All methods are safe for concurrent use. Reads through Bytes take no
// locks: the block table is a fixed-size array of atomic pointers, so a
// Ref obtained from Alloc can be dereferenced by any goroutine. Close
// requires the same quiescence the Ref contract already imposes: any
// operation in flight at Close may produce a ref into a released block.
type Allocator struct {
	pool *Pool

	// blocks is an append-only table of blocks owned by this allocator.
	// Slots are published with atomic stores so Bytes can read without
	// locking.
	blocks    [MaxBlocks]atomic.Pointer[block]
	numBlocks atomic.Int32

	closed atomic.Bool

	// Bump state: the current block and its bump offset.
	bumpMu sync.Mutex
	cur    int //oak:guarded-by bumpMu — index of the block being bump-allocated
	top    int //oak:guarded-by bumpMu — bump offset in the current block

	// Size-class free lists. classBits is the occupancy bitmap: bit c set
	// iff classes[c] is non-empty.
	classes   [numClasses]classList
	classBits atomic.Uint32

	// Large-span list: sorted by address, coalescing.
	largeMu    sync.Mutex
	large      []span //oak:guarded-by largeMu
	largeBytes int64  //oak:guarded-by largeMu

	// migrateMu serializes whole-structure reshuffles (compact, Close)
	// against each other; Alloc/Free never take it.
	migrateMu sync.Mutex
	// drained is compact's private copy of the parked spans, reused by
	// every compact.
	drained []span //oak:guarded-by migrateMu

	// dbg is the arenadebug double-free detector; a no-op without the
	// build tag.
	dbg debugTracker

	// Accounting counters are sharded (telemetry.Counter): every worker
	// bumps them on every Alloc/Free, and the old single atomic words
	// were the allocator's last all-threads shared cache lines. Reads
	// (Stats, LiveBytes) merge the stripes — a weak snapshot, fine for
	// accounting.
	allocated telemetry.Counter // live bytes handed out
	freed     telemetry.Counter // bytes returned via Free
	requests  telemetry.Counter // number of Alloc calls

	// tel, when set, receives block-grow/class-migrate events and
	// compact/rescue durations.
	tel atomic.Pointer[telemetry.Recorder]
}

// NewAllocator creates an allocator drawing from pool.
func NewAllocator(pool *Pool) *Allocator {
	return &Allocator{pool: pool, cur: -1}
}

// SetTelemetry attaches a recorder: block growth and free-list class
// migrations become flight-recorder events, the rescue path and its
// compaction are timed. Safe to call concurrently with live operations; nil
// detaches.
func (a *Allocator) SetTelemetry(r *telemetry.Recorder) {
	a.tel.Store(r)
}

// align8 rounds n up to a multiple of 8. Allocations are 8-byte aligned
// to keep value headers and numeric fields naturally aligned and to bound
// fragmentation from odd-sized keys.
func align8(n int) int { return (n + 7) &^ 7 }

// Alloc reserves n bytes and returns a reference to them. The returned
// range has exactly length n; internally the reservation is rounded up to
// 8 bytes. Alloc never returns memory that overlaps a live allocation.
func (a *Allocator) Alloc(n int) (Ref, error) {
	if n < 0 {
		return NilRef, errors.New("arena: negative allocation size")
	}
	if n == 0 {
		// Zero-length objects (empty keys/values) occupy no space but
		// need a valid, non-nil reference.
		a.bumpMu.Lock()
		if a.closed.Load() {
			a.bumpMu.Unlock()
			return NilRef, ErrClosed
		}
		if a.cur < 0 {
			if err := a.growLocked(); err != nil {
				a.bumpMu.Unlock()
				return NilRef, err
			}
		}
		ref := MakeRef(a.cur, a.top, 0)
		a.bumpMu.Unlock()
		return ref, nil
	}
	if n > a.pool.blockSize || n > MaxAllocSize {
		return NilRef, ErrTooLarge
	}
	if FpAllocFail.Fire() {
		return NilRef, ErrInjected
	}
	rounded := align8(n)
	a.requests.Add(1)
	if a.closed.Load() {
		return NilRef, ErrClosed
	}
	if rounded <= maxClassSize {
		if ref, ok := a.classAlloc(n, rounded); ok {
			a.allocated.Add(int64(rounded))
			return ref, nil
		}
	}
	if ref, ok := a.largeAlloc(n, rounded); ok {
		a.allocated.Add(int64(rounded))
		return ref, nil
	}
	// Bump path. Before a growth would acquire a fresh block, one rescue
	// pass (floor-class scan, then coalesce-and-retry) runs: exact-fit
	// spans hiding below their ceil class and coalescible fragments must
	// be reused before the footprint grows — and before exhaustion is
	// declared.
	rescued := false
	for {
		a.bumpMu.Lock()
		if a.closed.Load() {
			a.bumpMu.Unlock()
			return NilRef, ErrClosed
		}
		if a.cur < 0 || a.top+rounded > a.pool.blockSize {
			if !rescued {
				rescued = true
				a.bumpMu.Unlock()
				tick := a.tel.Load().Span(telemetry.OpArenaRescue)
				ref, ok := a.rescueAlloc(n, rounded)
				tick.Done()
				if ok {
					a.allocated.Add(int64(rounded))
					return ref, nil
				}
				continue
			}
			if err := a.growLocked(); err != nil {
				a.bumpMu.Unlock()
				return NilRef, err
			}
		}
		ref := MakeRef(a.cur, a.top, n)
		a.top += rounded
		a.bumpMu.Unlock()
		a.allocated.Add(int64(rounded))
		return ref, nil
	}
}

// growLocked acquires a fresh block from the pool. Caller holds a.bumpMu
// (never any list lock, so the leftover insert below cannot deadlock).
func (a *Allocator) growLocked() error {
	idx := int(a.numBlocks.Load())
	if idx >= MaxBlocks {
		return ErrExhausted
	}
	// The remainder of the current block, if any, joins the free
	// structures so it is not stranded.
	if a.cur >= 0 {
		if rest := a.pool.blockSize - a.top; rest >= 8 {
			a.dbg.noteFree(a.cur, a.top, rest)
			a.reinsert(span{block: a.cur, offset: a.top, length: rest})
		}
	}
	b, err := a.pool.acquire()
	if err != nil {
		return err
	}
	a.blocks[idx].Store(b)
	a.numBlocks.Store(int32(idx + 1))
	a.cur = idx
	a.top = 0
	a.tel.Load().Event(telemetry.EvBlockGrow, uint64(idx+1), uint64(a.pool.blockSize), 0)
	return nil
}

// Free returns the range behind ref to the free structures. The caller
// must guarantee no live reader can still dereference ref (in Oak this
// is established by the value-header locking protocol, or by the map
// retiring the span through its epoch domain, which frees it here once
// the grace period has elapsed).
func (a *Allocator) Free(ref Ref) {
	if ref.IsNil() {
		return
	}
	rounded := align8(ref.Len())
	a.freed.Add(int64(rounded))
	a.allocated.Add(int64(-rounded))
	// A zero-length ref owns no bytes: parking it would add a degenerate
	// span that no allocation can ever pop (it used to leak one free-list
	// slot per empty-value free). Mirrors growLocked's rest >= 8 guard.
	if rounded == 0 || a.closed.Load() {
		return
	}
	a.dbg.noteFree(ref.Block(), ref.Offset(), rounded)
	a.reinsert(span{block: ref.Block(), offset: ref.Offset(), length: rounded})
}

// Bytes returns the byte range behind ref. The slice aliases the block's
// storage: writes through it are visible to every reader of the same ref.
// Bytes performs no synchronization; Oak's value headers provide it.
func (a *Allocator) Bytes(ref Ref) []byte {
	b := a.blocks[ref.Block()].Load()
	return b.buf[ref.Offset():ref.End():ref.End()]
}

// Prefetch hints the first cache line behind ref into the CPU cache, so a
// later Bytes read of it does not stall. It is a non-binding hint that
// reads nothing: a stale ref — freed, reused, or taken from a header
// word without its lock — only wastes the hint. NilRef, zero-length refs
// and refs outside the block table are ignored.
func (a *Allocator) Prefetch(ref Ref) {
	if ref.Len() == 0 || uint(ref.Block()) >= MaxBlocks {
		return
	}
	if b := a.blocks[ref.Block()].Load(); b != nil && ref.Offset() < len(b.buf) {
		prefetch(&b.buf[ref.Offset()])
	}
}

// Write copies data into a freshly allocated range and returns its ref.
func (a *Allocator) Write(data []byte) (Ref, error) {
	ref, err := a.Alloc(len(data))
	if err != nil {
		return NilRef, err
	}
	copy(a.Bytes(ref), data)
	return ref, nil
}

// ClassStats is one size class's occupancy snapshot.
type ClassStats struct {
	Size  int   // class lower-bound span length in bytes
	Spans int   // spans parked on this class
	Bytes int64 // bytes parked on this class
}

// Stats is a snapshot of the allocator's accounting.
type Stats struct {
	LiveBytes    int64 // currently allocated (rounded) bytes
	FreedBytes   int64 // cumulative bytes freed
	Footprint    int64 // bytes of blocks held from the pool
	Blocks       int
	AllocCalls   int64
	FreeSpans    int   // spans across every free structure
	FreeCapacity int64 // bytes reusable: free structures + bump tail

	Classes    [numClasses]ClassStats // per-class occupancy
	LargeSpans int                    // spans on the large coalescing list
	LargeBytes int64
	// Fragmentation is the fraction of the footprint parked on free
	// structures: bytes that are held from the pool and freed but only
	// reusable for fitting sizes. 0 means every held byte is either live
	// or in the contiguous bump tail.
	Fragmentation float64
}

// Stats returns a snapshot of the allocator state. The paper highlights
// cheap RAM-footprint estimation (§1.1); Footprint is that estimate.
func (a *Allocator) Stats() Stats {
	st := Stats{
		LiveBytes:  a.allocated.Load(),
		FreedBytes: a.freed.Load(),
		Footprint:  int64(a.numBlocks.Load()) * int64(a.pool.blockSize),
		Blocks:     int(a.numBlocks.Load()),
		AllocCalls: a.requests.Load(),
	}
	var listBytes int64
	for c := range a.classes {
		cl := &a.classes[c]
		cl.mu.Lock()
		st.Classes[c] = ClassStats{Size: classSize(c), Spans: len(cl.spans), Bytes: cl.bytes}
		st.FreeSpans += len(cl.spans)
		listBytes += cl.bytes
		cl.mu.Unlock()
	}
	a.largeMu.Lock()
	st.LargeSpans = len(a.large)
	st.LargeBytes = a.largeBytes
	st.FreeSpans += len(a.large)
	listBytes += a.largeBytes
	a.largeMu.Unlock()
	st.FreeCapacity = listBytes
	a.bumpMu.Lock()
	if a.cur >= 0 {
		st.FreeCapacity += int64(a.pool.blockSize - a.top)
	}
	a.bumpMu.Unlock()
	if st.Footprint > 0 {
		st.Fragmentation = float64(listBytes) / float64(st.Footprint)
	}
	return st
}

// Footprint returns the total off-heap bytes held from the pool.
func (a *Allocator) Footprint() int64 {
	return int64(a.numBlocks.Load()) * int64(a.pool.blockSize)
}

// LiveBytes returns the number of live allocated bytes.
func (a *Allocator) LiveBytes() int64 { return a.allocated.Load() }

// compact drains every free structure, coalesces adjacent spans in
// address order, and re-parks the result. Its only caller is
// rescueAlloc, just before the allocator would grow a block. Returns the
// number of spans after coalescing.
func (a *Allocator) compact() int {
	a.migrateMu.Lock()
	defer a.migrateMu.Unlock()
	if a.closed.Load() {
		return 0
	}
	tick := a.tel.Load().Span(telemetry.OpArenaCompact)
	defer tick.Done()
	spans := a.drainAll(a.drained[:0])
	a.drained = spans[:0]
	if len(spans) == 0 {
		return 0
	}
	slices.SortFunc(spans, func(x, y span) int {
		switch {
		case spanBefore(x, y):
			return -1
		case spanBefore(y, x):
			return 1
		}
		return 0
	})
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.block == last.block && s.offset == last.offset+last.length {
			FpCoalesce.Fire()
			last.length += s.length
		} else {
			out = append(out, s)
		}
	}
	for _, s := range out {
		a.reinsert(s)
	}
	return len(out)
}

// Close releases every block back to the pool. Any Ref obtained from this
// allocator is invalid afterwards; subsequent Allocs fail with ErrClosed.
func (a *Allocator) Close() {
	a.migrateMu.Lock()
	if a.closed.Swap(true) {
		a.migrateMu.Unlock()
		return
	}
	a.drainAll(nil)
	a.dbg.reset()
	a.bumpMu.Lock()
	a.cur = -1
	a.top = 0
	a.bumpMu.Unlock()
	n := int(a.numBlocks.Load())
	blocks := make([]*block, 0, n)
	for i := 0; i < n; i++ {
		if b := a.blocks[i].Load(); b != nil {
			blocks = append(blocks, b)
		}
	}
	a.migrateMu.Unlock()
	for _, b := range blocks {
		a.pool.release(b)
	}
}
