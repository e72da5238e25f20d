package arena

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"oakmap/internal/faultpoint"
	"oakmap/internal/telemetry"
)

func TestRefPackRoundTrip(t *testing.T) {
	f := func(block uint16, offset, length uint32) bool {
		b := int(block) % MaxBlocks
		o := int(offset) % MaxBlockSize
		l := int(length) % (MaxAllocSize + 1)
		r := MakeRef(b, o, l)
		return r.Block() == b && r.Offset() == o && r.Len() == l && !r.IsNil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRefNil(t *testing.T) {
	if !NilRef.IsNil() {
		t.Fatal("NilRef must be nil")
	}
	if MakeRef(0, 0, 0).IsNil() {
		t.Fatal("block 0 / offset 0 / length 0 must be distinct from nil")
	}
	if NilRef.String() != "ref(nil)" {
		t.Fatalf("String = %q", NilRef.String())
	}
}

func TestRefOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct{ b, o, l int }{
		{MaxBlocks, 0, 0},
		{-1, 0, 0},
		{0, MaxBlockSize, 0},
		{0, -1, 0},
		{0, 0, MaxAllocSize + 1},
		{0, 0, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeRef(%d,%d,%d) did not panic", tc.b, tc.o, tc.l)
				}
			}()
			MakeRef(tc.b, tc.o, tc.l)
		}()
	}
}

func TestAllocatorBasic(t *testing.T) {
	p := NewPool(4096, 0)
	a := NewAllocator(p)
	defer a.Close()
	r1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 100 {
		t.Fatalf("len = %d", r1.Len())
	}
	b := a.Bytes(r1)
	if len(b) != 100 {
		t.Fatalf("Bytes len = %d", len(b))
	}
	for i := range b {
		b[i] = 0xAB
	}
	// A second allocation must not overlap the first.
	r2, _ := a.Alloc(50)
	b2 := a.Bytes(r2)
	for i := range b2 {
		b2[i] = 0xCD
	}
	for i, v := range a.Bytes(r1) {
		if v != 0xAB {
			t.Fatalf("overlap at %d: %x", i, v)
		}
	}
}

func TestAllocatorWrite(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	data := []byte("hello world")
	r, err := a.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Bytes(r)) != "hello world" {
		t.Fatal("Write content mismatch")
	}
}

func TestAllocatorErrors(t *testing.T) {
	a := NewAllocator(NewPool(1024, 0))
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("Alloc(-5) should fail")
	}
	if _, err := a.Alloc(2048); err != ErrTooLarge {
		t.Fatal("oversized alloc should fail with ErrTooLarge")
	}
	// A request that fits a block whose size is not a class boundary, but
	// whose size class does not, fails the same way instead of bumping
	// past the block's end.
	odd := NewAllocator(NewPool(1000, 0))
	defer odd.Close()
	if _, err := odd.Alloc(990); err != ErrTooLarge {
		t.Fatalf("Alloc(990) in 1000 B blocks: %v, want ErrTooLarge", err)
	}
	if r, err := odd.Alloc(896); err != nil || odd.Bytes(r)[895] != 0 {
		t.Fatalf("Alloc(896) in 1000 B blocks: %v", err)
	}
	a.Close()
	if _, err := a.Alloc(8); err != ErrClosed {
		t.Fatalf("alloc after close: %v", err)
	}
	a.Close() // double close is a no-op
}

func TestAllocatorGrowsBlocks(t *testing.T) {
	p := NewPool(1024, 0)
	a := NewAllocator(p)
	defer a.Close()
	refs := make([]Ref, 0, 100)
	for i := 0; i < 100; i++ {
		r, err := a.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	st := a.Stats()
	if st.Blocks < 10 {
		t.Fatalf("expected ≥10 blocks, got %d", st.Blocks)
	}
	if st.Footprint != int64(st.Blocks)*1024 {
		t.Fatalf("footprint %d != blocks×1024", st.Footprint)
	}
	// All refs remain valid and distinct.
	seen := map[Ref]bool{}
	for _, r := range refs {
		if seen[r] {
			t.Fatal("duplicate ref")
		}
		seen[r] = true
		_ = a.Bytes(r)
	}
}

func TestFirstFitReuse(t *testing.T) {
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	r1, _ := a.Alloc(64)
	a.Alloc(64) // keep the bump pointer moving
	live := a.LiveBytes()
	a.Free(r1)
	if a.LiveBytes() != live-64 {
		t.Fatalf("LiveBytes after free = %d", a.LiveBytes())
	}
	// The freed span is reused first-fit.
	r3, _ := a.Alloc(64)
	if r3.Block() != r1.Block() || r3.Offset() != r1.Offset() {
		t.Fatalf("first-fit did not reuse: %v vs %v", r3, r1)
	}
	// A smaller allocation that misses its class splits a free large
	// span at its head.
	big, _ := a.Alloc(largeMin)
	a.Alloc(64)
	a.Free(big)
	r4, _ := a.Alloc(32)
	if r4.Block() != big.Block() || r4.Offset() != big.Offset() {
		t.Fatalf("split head misplaced: %v", r4)
	}
	// The rest fell below largeMin and was parked in class-sized pieces,
	// the first one right after the head.
	r5, _ := a.Alloc(pieceLen(largeMin - 32))
	if r5.Offset() != big.Offset()+32 {
		t.Fatalf("split tail misplaced: %v", r5)
	}
}

func TestCompactCoalesces(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	var refs []Ref
	for i := 0; i < 8; i++ {
		r, _ := a.Alloc(32)
		refs = append(refs, r)
	}
	for _, r := range refs {
		a.Free(r)
	}
	if _, spans := a.compact(0); spans != 1 {
		t.Fatalf("compact left %d spans; want 1 contiguous span", spans)
	}
}

func TestPoolRecycling(t *testing.T) {
	p := NewPool(1024, 0)
	a1 := NewAllocator(p)
	for i := 0; i < 10; i++ {
		a1.Alloc(512)
	}
	created := p.Stats().BlocksCreated
	a1.Close()
	if p.Stats().BlocksLoaned != 0 {
		t.Fatal("blocks not returned on Close")
	}
	a2 := NewAllocator(p)
	defer a2.Close()
	for i := 0; i < 10; i++ {
		a2.Alloc(512)
	}
	if p.Stats().BlocksCreated != created {
		t.Fatalf("pool created new blocks (%d → %d) instead of recycling",
			created, p.Stats().BlocksCreated)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := NewPool(1024, 2048) // at most 2 blocks
	a := NewAllocator(p)
	defer a.Close()
	a.Alloc(1024)
	a.Alloc(1024)
	if _, err := a.Alloc(1024); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

// noOverlap fails t if two of refs share a byte.
func noOverlap(t *testing.T, refs []Ref) {
	t.Helper()
	owner := map[[2]int]int{}
	for i, r := range refs {
		for off := r.Offset(); off < r.Offset()+SpanLen(r.Len()); off += 8 {
			if j, ok := owner[[2]int{r.Block(), off}]; ok {
				t.Fatalf("refs %d and %d share b%d+%d", j, i, r.Block(), off)
			}
			owner[[2]int{r.Block(), off}] = i
		}
	}
}

// A block size that is not a multiple of 8 leaves an unaligned tail when
// the allocator moves on to the next block; the tail's last bytes are
// dropped rather than parked as a piece shorter than the smallest class.
// Small blocks send tails to the classes, large ones to the large list
// and through compact.
func TestUnalignedBlockSize(t *testing.T) {
	for _, bs := range []int{1005, 3*largeMin + 5} {
		a := NewAllocator(NewPool(bs, 0))
		rng := rand.New(rand.NewPCG(uint64(bs), 1))
		var refs []Ref
		for a.Stats().Blocks < 6 {
			n := 8
			if rng.IntN(2) == 0 {
				n = 1 + rng.IntN(bs/3)
			}
			r, err := a.Alloc(n)
			if err != nil {
				t.Fatalf("block size %d: Alloc(%d): %v", bs, n, err)
			}
			refs = append(refs, r)
		}
		for _, r := range refs[:len(refs)/2] {
			a.Free(r)
		}
		a.compact(0)
		refs = refs[len(refs)/2:]
		for i := 0; i < 200; i++ {
			r, err := a.Alloc(8 * (1 + rng.IntN(16)))
			if err != nil {
				t.Fatalf("block size %d: %v", bs, err)
			}
			refs = append(refs, r)
		}
		noOverlap(t, refs)
		for _, c := range a.Stats().Classes {
			if c.Size%8 != 0 {
				t.Fatalf("class size %d", c.Size)
			}
		}
		a.Close()
	}
}

// An Alloc that meets an exhausted pool keeps the current block's tail
// bumpable and parks none of it, however often it is turned away: a tail
// both parked and bumpable would hand out the same bytes twice (under
// arenadebug its second park panics as an overlapping free).
func TestExhaustedPoolKeepsTail(t *testing.T) {
	a := NewAllocator(NewPool(1024, 1024)) // one block
	defer a.Close()
	refs := make([]Ref, 0, 16)
	r, err := a.Alloc(768)
	if err != nil {
		t.Fatal(err)
	}
	refs = append(refs, r)
	for i := 0; i < 2; i++ {
		if _, err := a.Alloc(512); err != ErrPoolExhausted {
			t.Fatalf("Alloc(512) #%d: %v, want ErrPoolExhausted", i, err)
		}
	}
	for {
		r, err := a.Alloc(64)
		if err != nil {
			break
		}
		refs = append(refs, r)
	}
	noOverlap(t, refs)
	if got := len(refs) - 1; got != 4 {
		t.Fatalf("the 256 B tail served %d 64 B allocations, want 4", got)
	}
}

func TestConcurrentAllocNoOverlap(t *testing.T) {
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	const goroutines = 8
	const perG = 500
	var mu sync.Mutex
	all := make([]Ref, 0, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			local := make([]Ref, 0, perG)
			for i := 0; i < perG; i++ {
				n := 1 + int(rng.Uint64()%200)
				r, err := a.Alloc(n)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				// Stamp the region with the goroutine id; verify later.
				b := a.Bytes(r)
				for j := range b {
					b[j] = byte(g)
				}
				local = append(local, r)
				if rng.Uint64()%4 == 0 && len(local) > 0 {
					victim := int(rng.Uint64() % uint64(len(local)))
					a.Free(local[victim])
					local[victim] = local[len(local)-1]
					local = local[:len(local)-1]
				}
			}
			mu.Lock()
			for _, r := range local {
				all = append(all, r)
				// Verify the stamp survived: no other goroutine got
				// overlapping memory.
				for _, v := range a.Bytes(r) {
					if v != byte(g) {
						t.Errorf("stamp clobbered: got %d want %d", v, g)
						break
					}
				}
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	// Live refs must be pairwise disjoint.
	type spanKey struct{ b, o int }
	used := map[spanKey]bool{}
	for _, r := range all {
		for off := r.Offset(); off < r.End(); off += 8 {
			k := spanKey{r.Block(), off &^ 7}
			if used[k] {
				t.Fatalf("overlapping live allocations at %v", k)
			}
			used[k] = true
		}
	}
}

func TestAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator(NewPool(1<<14, 0))
		defer a.Close()
		var live []Ref
		var expect int64
		for _, op := range ops {
			n := int(op%512) + 1
			if op%3 == 0 && len(live) > 0 {
				r := live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(r)
				expect -= int64(SpanLen(r.Len()))
			} else {
				r, err := a.Alloc(n)
				if err != nil {
					return false
				}
				live = append(live, r)
				expect += int64(SpanLen(n))
			}
		}
		return a.LiveBytes() == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPoolSingleton(t *testing.T) {
	if DefaultPool() != DefaultPool() {
		t.Fatal("DefaultPool must be a singleton")
	}
	if DefaultPool().BlockSize() != DefaultBlockSize {
		t.Fatal("DefaultPool block size mismatch")
	}
}

// TestZeroLengthFreeNoLeak pins the free-list span leak: Free of a
// zero-length ref used to append a span{length: 0} that no allocation
// could ever pop, growing the free list without bound under empty-value
// churn. The old allocator fails this with FreeSpans == 10000. The
// subtest keeps the test's reported name stable.
func TestZeroLengthFreeNoLeak(t *testing.T) {
	t.Run("size-class", func(t *testing.T) {
		a := NewAllocator(NewPool(4096, 0))
		defer a.Close()
		base := a.Stats().FreeSpans
		for i := 0; i < 10000; i++ {
			r, err := a.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			a.Free(r)
		}
		if spans := a.Stats().FreeSpans; spans > base {
			t.Fatalf("free list grew by %d degenerate spans freeing empty values", spans-base)
		}
		if a.LiveBytes() != 0 {
			t.Fatalf("LiveBytes = %d", a.LiveBytes())
		}
	})
}

func TestClassMath(t *testing.T) {
	for _, tc := range []struct{ n, span int }{
		{1, 8},
		{8, 8},
		{100, 104}, // the benchmark's keys: every multiple of 8 up to 128 is a class
		{128, 128},
		{129, 144}, // above 128: 8 classes per power of two
		{200, 208},
		{256, 256},
		{257, 288},
		{4104, 4608},
		{7681, largeMin}, // rounds up onto the large list
		{largeMin + 1, largeMin + 8},
	} {
		if got := SpanLen(tc.n); got != tc.span {
			t.Errorf("SpanLen(%d) = %d, want %d", tc.n, got, tc.span)
		}
	}
	prev := 0
	for c := 0; c < numClasses; c++ {
		size := classSize(c)
		if size <= prev || size%8 != 0 || size >= largeMin {
			t.Fatalf("classSize(%d) = %d after %d", c, size, prev)
		}
		if classOf(size) != c || SpanLen(size) != size || pieceLen(size) != size {
			t.Fatalf("class %d (%d B): classOf %d, SpanLen %d, pieceLen %d",
				c, size, classOf(size), SpanLen(size), pieceLen(size))
		}
		// Every length between two classes rounds up to the upper one, and
		// a span of that length parks a piece of the lower one.
		for n := prev + 1; n < size; n++ {
			if SpanLen(n) != size {
				t.Fatalf("SpanLen(%d) = %d, want %d", n, SpanLen(n), size)
			}
			if n%8 == 0 && pieceLen(n) != prev {
				t.Fatalf("pieceLen(%d) = %d, want %d", n, pieceLen(n), prev)
			}
		}
		prev = size
	}
	if classSize(numClasses-1) != largeMin-largeMin/16 {
		t.Fatalf("largest class %d", classSize(numClasses-1))
	}
}

// TestFragmentationReuse: interleaved small frees followed by a larger
// allocation must reuse the coalesced space instead of growing a new
// block. The rescue path (compact-and-retry before growth) makes this
// automatic — Footprint stays flat.
func TestFragmentationReuse(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	var refs []Ref
	for i := 0; i < 64; i++ { // fills the 4096B block exactly
		r, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	// Free in an interleaved order so no two consecutive frees coalesce
	// trivially on insert.
	for i := 0; i < 64; i += 2 {
		a.Free(refs[i])
	}
	for i := 1; i < 64; i += 2 {
		a.Free(refs[i])
	}
	before := a.Stats().Footprint
	r, err := a.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Footprint; got != before {
		t.Fatalf("footprint grew %d → %d: large alloc did not reuse coalesced space", before, got)
	}
	if r.Len() != 1024 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestLargeSpanCoalescing: adjacent large frees must merge on insert
// (address-ordered coalescing), firing the arena/coalesce point.
func TestLargeSpanCoalescing(t *testing.T) {
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	FpCoalesce.Arm(faultpoint.Never()) // count hits without firing
	defer FpCoalesce.Disarm()
	r1, _ := a.Alloc(8192)
	r2, _ := a.Alloc(8192)
	r3, _ := a.Alloc(8192)
	a.Free(r1)
	a.Free(r3) // not adjacent to r1: no merge yet
	st := a.Stats()
	if st.LargeSpans != 2 {
		t.Fatalf("LargeSpans = %d, want 2 before middle free", st.LargeSpans)
	}
	a.Free(r2) // bridges r1 and r3: both merges happen
	st = a.Stats()
	if st.LargeSpans != 1 {
		t.Fatalf("LargeSpans = %d, want 1 after coalescing", st.LargeSpans)
	}
	if st.LargeBytes != 3*8192 {
		t.Fatalf("LargeBytes = %d", st.LargeBytes)
	}
	if FpCoalesce.Hits() < 2 {
		t.Fatalf("coalesce point hit %d times, want ≥2", FpCoalesce.Hits())
	}
	// The merged span serves one big allocation.
	r, err := a.Alloc(3 * 8192)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offset() != r1.Offset() {
		t.Fatalf("merged span not reused: %v vs %v", r, r1)
	}
}

// TestLargeCarveMigratesToClass: carving a large span below largeMin
// must move the remainder onto a size class (arena/class-migrate).
func TestLargeCarveMigratesToClass(t *testing.T) {
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	FpClassMigrate.Arm(faultpoint.Never())
	defer FpClassMigrate.Disarm()
	r, _ := a.Alloc(8192)
	a.Alloc(8) // keep the bump pointer off the freed range
	a.Free(r)
	// 8192 - SpanLen(4104) = 3584 < largeMin: the remainder must leave
	// the list.
	if _, err := a.Alloc(4104); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.LargeSpans != 0 {
		t.Fatalf("LargeSpans = %d, want 0 after carve-below-largeMin", st.LargeSpans)
	}
	if st.Classes[classOf(largeMin-SpanLen(4104))].Spans != 1 {
		t.Fatalf("remainder not migrated to class: %+v", st.Classes)
	}
	if FpClassMigrate.Hits() != 1 {
		t.Fatalf("class-migrate hits = %d", FpClassMigrate.Hits())
	}
}

func TestSizeClassStats(t *testing.T) {
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	r1, _ := a.Alloc(64)
	r2, _ := a.Alloc(64)
	r3, _ := a.Alloc(200)
	a.Free(r1)
	a.Free(r2)
	a.Free(r3)
	st := a.Stats()
	if c := st.Classes[classOf(64)]; c.Spans != 2 || c.Bytes != 128 || c.Size != 64 {
		t.Fatalf("64B class stats: %+v", c)
	}
	if c := st.Classes[classOf(SpanLen(200))]; c.Spans != 1 || c.Bytes != int64(SpanLen(200)) {
		t.Fatalf("200B class stats: %+v", c)
	}
	if st.FreeSpans != 3 {
		t.Fatalf("FreeSpans = %d", st.FreeSpans)
	}
	wantFree := int64(128 + SpanLen(200))
	if st.Fragmentation <= 0 || st.Fragmentation != float64(wantFree)/float64(st.Footprint) {
		t.Fatalf("Fragmentation = %v (free %d, footprint %d)", st.Fragmentation, wantFree, st.Footprint)
	}
}

// TestRescueExactFit: a freed span whose length is not a power of two
// must serve the next request of its size when the pool is exhausted
// (regression for the power-of-two classes, which parked such a span
// where a request of its own size could not pop it).
func TestRescueExactFit(t *testing.T) {
	p := NewPool(1024, 1024) // a single block, ever
	a := NewAllocator(p)
	defer a.Close()
	var refs []Ref
	for i := 0; i < 9; i++ { // 9 × 104 rounded bytes fill the block
		r, err := a.Alloc(100) // rounded to 104, its own class
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	// Free alternating refs: non-adjacent, so only their own class can
	// serve the request.
	for i := 0; i < len(refs); i += 2 {
		a.Free(refs[i])
	}
	r, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("alloc after freeing exact-fit spans: %v", err)
	}
	if r.Len() != 100 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestConcurrentClassChurn is the seeded alloc/free stress over every
// size class (8B through large spans), with scheduling jitter on the
// new coalesce/class-migrate fault points so the windows they guard are
// exercised; region stamps verify no two live allocations ever overlap.
func TestConcurrentClassChurn(t *testing.T) {
	jitter := faultpoint.Hook{Decide: func(hit int64) bool {
		if hit%16 == 0 {
			runtime.Gosched()
		}
		return false
	}}
	FpCoalesce.Arm(jitter)
	FpClassMigrate.Arm(jitter)
	defer faultpoint.DisarmAll()
	a := NewAllocator(NewPool(1<<20, 0))
	defer a.Close()
	sizes := []int{1, 8, 17, 64, 100, 500, 1000, 4000, 5000, 9000, 20000}
	const goroutines = 8
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xc0ffee))
			type live struct {
				ref   Ref
				stamp byte
			}
			var locals []live
			for i := 0; i < perG; i++ {
				n := sizes[rng.Uint64()%uint64(len(sizes))]
				r, err := a.Alloc(n)
				if err != nil {
					t.Errorf("alloc(%d): %v", n, err)
					return
				}
				stamp := byte(g)<<4 | byte(i&0xf)
				b := a.Bytes(r)
				for j := range b {
					b[j] = stamp
				}
				locals = append(locals, live{r, stamp})
				if rng.Uint64()%3 == 0 && len(locals) > 0 {
					v := int(rng.Uint64() % uint64(len(locals)))
					for j, x := range a.Bytes(locals[v].ref) {
						if x != locals[v].stamp {
							t.Errorf("g%d: stamp clobbered at +%d: %x != %x", g, j, x, locals[v].stamp)
							return
						}
					}
					a.Free(locals[v].ref)
					locals[v] = locals[len(locals)-1]
					locals = locals[:len(locals)-1]
				}
			}
			for _, l := range locals {
				for j, x := range a.Bytes(l.ref) {
					if x != l.stamp {
						t.Errorf("g%d: final stamp clobbered at +%d", g, j)
						return
					}
				}
				a.Free(l.ref)
			}
		}(g)
	}
	wg.Wait()
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d after freeing everything", a.LiveBytes())
	}
	// And the freed space coalesces back down.
	_, spans := a.compact(0)
	st := a.Stats()
	if spans != st.FreeSpans {
		t.Fatalf("compact reported %d spans, stats say %d", spans, st.FreeSpans)
	}
}

func TestZeroLengthAllocation(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	r, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.IsNil() || r.Len() != 0 {
		t.Fatalf("zero alloc ref = %v", r)
	}
	if b := a.Bytes(r); len(b) != 0 {
		t.Fatalf("Bytes len = %d", len(b))
	}
	a.Free(r) // must not corrupt accounting
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
	// Zero allocs interleave safely with real ones.
	r1, _ := a.Alloc(16)
	r0, _ := a.Alloc(0)
	r2, _ := a.Alloc(16)
	if r1 == r2 || r0.Len() != 0 {
		t.Fatal("interleaved zero alloc broke layout")
	}
}

// TestPrefetchGuards: Prefetch is handed refs read from header words
// without their lock, so any of them may be nil, empty, stale, or point
// past the blocks the allocator owns.
// None may panic — unguarded, a NilRef would index blocks[-1] — and a
// hint never changes the bytes behind a live ref.
func TestPrefetchGuards(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	a.Prefetch(NilRef) // before any block exists
	live, err := a.Write([]byte("live bytes"))
	if err != nil {
		t.Fatal(err)
	}
	freed, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(freed)
	reused, err := a.Write(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if reused != freed {
		t.Fatalf("the freed span was not reused: freed %v, new %v", freed, reused)
	}
	for _, tc := range []struct {
		name string
		ref  Ref
	}{
		{"nil", NilRef},
		{"zero-length", MakeRef(0, 0, 0)},
		{"zero-length/unowned-block", MakeRef(MaxBlocks-1, 0, 0)},
		{"unowned-block", MakeRef(MaxBlocks-1, 0, 8)},
		{"block-field-zero", Ref(uint64(16)<<lengthBits | 8)},
		{"offset-past-block", MakeRef(0, 4096, 8)},
		{"freed-then-reused", freed},
		{"live", live},
	} {
		t.Run(tc.name, func(t *testing.T) { a.Prefetch(tc.ref) })
	}
	if got := string(a.Bytes(live)); got != "live bytes" {
		t.Fatalf("live bytes after prefetches = %q", got)
	}
}

// compact re-parks the spans it drained into the lists' own arrays, and
// reuses its own copy of them: once the arrays have grown, a
// churn-and-compact cycle allocates nothing.
func TestCompactKeepsListArrays(t *testing.T) {
	if DebugChecks {
		t.Skip("the arenadebug tracker allocates on every Alloc and Free")
	}
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	refs := make([]Ref, 0, 64)
	cycle := func() {
		refs = refs[:0]
		for i := 0; i < 64; i++ {
			r, err := a.Alloc(16 << (i % 10)) // 16 B … 8 KiB: every class and the large list
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, r)
		}
		for i := 0; i < len(refs); i += 2 { // every other span: nothing coalesces
			a.Free(refs[i])
		}
		a.compact(0)
		for i := 1; i < len(refs); i += 2 {
			a.Free(refs[i])
		}
		a.compact(0)
	}
	cycle()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("a churn-and-compact cycle allocates %.1f times; want 0", n)
	}
}

// TestExactClassChurn churns one live span of every 8-byte multiple from
// 8 B to 8 KiB: each round frees a random quarter of them and allocates
// the same lengths back in another order. A freed span serves the next
// request of its own length, so after warm-up the allocator holds a
// steady block count and never enters its rescue path. (With
// power-of-two classes, a span of a length between two powers of two
// could not serve a request of that length, and the churn lived in the
// rescue path.)
func TestExactClassChurn(t *testing.T) {
	a := NewAllocator(NewPool(1<<20, 0))
	defer a.Close()
	rec := telemetry.New(telemetry.Config{})
	a.SetTelemetry(rec)
	rng := rand.New(rand.NewPCG(5, 8))
	const sizes = 8 << 10 / 8
	live := make([]Ref, sizes)
	for _, j := range rng.Perm(sizes) {
		r, err := a.Alloc(8 * (j + 1))
		if err != nil {
			t.Fatal(err)
		}
		live[j] = r
	}
	round := func() {
		idx := rng.Perm(sizes)[:sizes/4]
		for _, j := range idx {
			a.Free(live[j])
		}
		rng.Shuffle(len(idx), func(x, y int) { idx[x], idx[y] = idx[y], idx[x] })
		for _, j := range idx {
			r, err := a.Alloc(8 * (j + 1))
			if err != nil {
				t.Fatal(err)
			}
			live[j] = r
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	blocks := a.Stats().Blocks
	rescues := rec.OpSnapshot(telemetry.OpArenaRescue).Count
	for i := 0; i < 200; i++ {
		round()
	}
	if got := a.Stats().Blocks; got != blocks {
		t.Errorf("blocks grew %d → %d under a steady live set", blocks, got)
	}
	if got := rec.OpSnapshot(telemetry.OpArenaRescue).Count; got != rescues {
		t.Errorf("the churn entered the rescue path %d times after warm-up", got-rescues)
	}
}
