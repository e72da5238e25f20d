package arena

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"oakmap/internal/faultpoint"
	"oakmap/internal/freelist"
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
	// FpClassMigrate is hit when park places a span that changes lists:
	// a large-list carve remainder, a block tail, compact's output. The
	// span is privately held at that instant, so a pause here strands it
	// from every allocation path — the window where concurrent allocs
	// must fall through to other spans or the bump pointer rather than
	// spin.
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
// rebuilt around exact size classes: fresh space comes from a bump
// pointer in the current block, a freed span goes back on the lock-free
// free list of its own size class (internal/freelist, linked through the
// spans' first 8 bytes), or, from largeMin up, on one address-ordered
// coalescing list, and serves the next request of its size.
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
	// rescuedAt is the block that was current when the rescue last ran.
	rescuedAt int //oak:guarded-by bumpMu

	// Size-class free lists, one per exact class size.
	classes [numClasses]freelist.List[spanLinks]

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

	// requests counts Alloc calls. Bytes have no counter: LiveBytes
	// derives them from the free structures.
	requests telemetry.Counter

	// tel, when set, receives block-grow/class-migrate events and
	// compact/rescue durations.
	tel atomic.Pointer[telemetry.Recorder]
}

// NewAllocator creates an allocator drawing from pool.
func NewAllocator(pool *Pool) *Allocator {
	return &Allocator{pool: pool, cur: -1, rescuedAt: -1}
}

// SetTelemetry attaches a recorder: block growth and free-list class
// migrations become flight-recorder events, the rescue path and its
// compaction are timed. Safe to call concurrently with live operations; nil
// detaches.
func (a *Allocator) SetTelemetry(r *telemetry.Recorder) {
	a.tel.Store(r)
}

// Alloc reserves n bytes and returns a reference to them. The returned
// range has exactly length n; internally the reservation is SpanLen(n)
// bytes, and a reservation larger than a block fails with ErrTooLarge.
// Alloc never returns memory that overlaps a live allocation.
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
	rounded := SpanLen(n)
	if rounded > a.pool.blockSize || n > MaxAllocSize {
		return NilRef, ErrTooLarge
	}
	if FpAllocFail.Fire() {
		return NilRef, ErrInjected
	}
	a.requests.Add(1)
	if a.closed.Load() {
		return NilRef, ErrClosed
	}
	if rounded < largeMin {
		if ref, ok := a.classPop(n, rounded); ok {
			return ref, nil
		}
	}
	if ref, ok := a.largeAlloc(n, rounded); ok {
		return ref, nil
	}
	// Bump path. When the current block is full, the rescue (compact and
	// carve) runs before the footprint grows, but only once per block:
	// rerun on every miss of a full block, it would sort every free span
	// per allocation. Before growth fails for good, every Alloc gets one
	// rescue of its own.
	rescued := false
	for {
		a.bumpMu.Lock()
		if a.closed.Load() {
			a.bumpMu.Unlock()
			return NilRef, ErrClosed
		}
		if a.cur < 0 || a.top+rounded > a.pool.blockSize {
			grew := false
			if a.rescuedAt == a.cur {
				err := a.growLocked()
				if err != nil && rescued {
					a.bumpMu.Unlock()
					return NilRef, err
				}
				grew = err == nil
			}
			if !grew {
				// The rescue: coalesce every free span and carve the
				// request from the first run that fits.
				rescued = true
				a.rescuedAt = a.cur
				a.bumpMu.Unlock()
				tick := a.tel.Load().Span(telemetry.OpArenaRescue)
				s, _ := a.compact(rounded)
				tick.Done()
				if s.length > 0 {
					return MakeRef(s.block, s.offset, n), nil
				}
				continue
			}
		}
		ref := MakeRef(a.cur, a.top, n)
		a.top += rounded
		a.bumpMu.Unlock()
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
	b, err := a.pool.acquire()
	if err != nil {
		// The current block stays current, its tail still bumpable: it
		// is parked only once the block is left behind.
		return err
	}
	// The remainder of the current block joins the free structures so it
	// is not stranded. Bump offsets are multiples of 8 and a block's size
	// need not be, so the last blockSize%8 bytes are dropped: every free
	// span's length is a multiple of 8, which park's class cut relies on.
	if a.cur >= 0 {
		if rest := (a.pool.blockSize - a.top) &^ 7; rest > 0 {
			a.dbg.noteFree(a.cur, a.top, rest)
			a.park(span{block: a.cur, offset: a.top, length: rest})
		}
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
	rounded := SpanLen(ref.Len())
	// A zero-length ref owns no bytes: parking it would add a degenerate
	// span that no allocation can ever pop (it used to leak one free-list
	// slot per empty-value free). Mirrors growLocked's rest > 0 guard.
	if rounded == 0 || a.closed.Load() {
		return
	}
	a.dbg.noteFree(ref.Block(), ref.Offset(), rounded)
	if rounded < largeMin {
		a.classPush(span{block: ref.Block(), offset: ref.Offset(), length: rounded})
	} else {
		a.largeInsert(span{block: ref.Block(), offset: ref.Offset(), length: rounded})
	}
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
	Size  int   // the class's span length in bytes
	Spans int   // spans parked on this class
	Bytes int64 // bytes parked on this class
}

// Stats is a snapshot of the allocator's accounting.
type Stats struct {
	LiveBytes  int64 // allocated (rounded) bytes; see Allocator.LiveBytes
	Footprint  int64 // bytes of blocks held from the pool
	Blocks     int
	AllocCalls int64
	FreeSpans  int // spans across every free structure

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
	st := Stats{AllocCalls: a.requests.Load()}
	var listBytes int64
	for c := range a.classes {
		n := int(a.classes[c].Count())
		st.Classes[c] = ClassStats{Size: classSize(c), Spans: n, Bytes: int64(n) * int64(classSize(c))}
		st.FreeSpans += n
		listBytes += st.Classes[c].Bytes
	}
	a.largeMu.Lock()
	st.LargeSpans = len(a.large)
	st.LargeBytes = a.largeBytes
	st.FreeSpans += len(a.large)
	listBytes += a.largeBytes
	a.largeMu.Unlock()
	a.bumpMu.Lock()
	st.Blocks = int(a.numBlocks.Load())
	if a.cur >= 0 {
		// The bytes the bump pointer has passed: the aligned part of each
		// block left behind (see growLocked) and the current one up to top.
		st.LiveBytes = int64(a.cur)*int64(a.pool.blockSize&^7) + int64(a.top) - listBytes
	}
	a.bumpMu.Unlock()
	st.Footprint = int64(st.Blocks) * int64(a.pool.blockSize)
	if st.Footprint > 0 {
		st.Fragmentation = float64(listBytes) / float64(st.Footprint)
	}
	return st
}

// Footprint returns the total off-heap bytes held from the pool.
func (a *Allocator) Footprint() int64 {
	return int64(a.numBlocks.Load()) * int64(a.pool.blockSize)
}

// LiveBytes returns the allocated bytes, each rounded to its SpanLen. No
// counter keeps it: it is the bytes the bump pointer has passed less those
// on the free lists, so a span the allocator loses reads as live. It is
// exact at rest and 0 after Close; under concurrent Alloc and Free it is a
// weak snapshot, and it reads high while a rescue's compact or a
// large-list carve holds spans off the lists.
func (a *Allocator) LiveBytes() int64 { return a.Stats().LiveBytes }

// compact drains every free structure, coalesces adjacent spans in
// address order, and re-parks the result. When want > 0 it first cuts
// want bytes, first-fit, from the lowest-addressed run that holds them
// and returns them as fit (fit.length is 0 if no run does). Its only
// caller is Alloc's rescue, before the allocator would grow a block.
// parked is the number of spans it re-parked.
func (a *Allocator) compact(want int) (fit span, parked int) {
	a.migrateMu.Lock()
	defer a.migrateMu.Unlock()
	if a.closed.Load() {
		return span{}, 0
	}
	tick := a.tel.Load().Span(telemetry.OpArenaCompact)
	defer tick.Done()
	spans := a.drainAll(a.drained[:0])
	a.drained = spans[:0]
	if len(spans) == 0 {
		return span{}, 0
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
		if want > 0 && fit.length == 0 && s.length >= want {
			fit = span{block: s.block, offset: s.offset, length: want}
			a.dbg.noteAlloc(s.block, s.offset, want)
			s.offset += want
			s.length -= want
		}
		if s.length > 0 {
			parked += a.park(s)
		}
	}
	return fit, parked
}

// Close releases every block back to the pool. Any Ref obtained from this
// allocator is invalid afterwards; subsequent Allocs fail with ErrClosed,
// subsequent Frees do nothing, and Stats, Footprint and LiveBytes read 0
// blocks and 0 bytes. No Free may run concurrently with Close: Free pushes
// without a lock, writing the span's link into its block, so one that
// passed its closed check before Close could write into a block already
// back in the pool and handed to another allocator.
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
	n := int(a.numBlocks.Swap(0))
	a.bumpMu.Unlock()
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
