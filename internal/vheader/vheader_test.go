package vheader

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAllocUniqueMonotone(t *testing.T) {
	tb := NewTable()
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		h := tb.Alloc()
		if h <= prev {
			t.Fatalf("handle %d not greater than previous %d", h, prev)
		}
		prev = h
	}
	if tb.Count() != 1000 {
		t.Fatalf("Count = %d", tb.Count())
	}
}

func TestAllocZeroReserved(t *testing.T) {
	tb := NewTable()
	if h := tb.Alloc(); h == 0 {
		t.Fatal("handle 0 must be reserved for ⊥")
	}
}

func TestReadWriteLockBasics(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	if !tb.TryReadLock(h) {
		t.Fatal("fresh header must be readable")
	}
	if !tb.TryReadLock(h) {
		t.Fatal("read lock must be shared")
	}
	tb.ReadUnlock(h)
	tb.ReadUnlock(h)
	if !tb.TryWriteLock(h) {
		t.Fatal("write lock after full unlock")
	}
	tb.WriteUnlock(h)
}

func TestDeleteSemantics(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	if tb.IsDeleted(h) {
		t.Fatal("fresh header deleted")
	}
	if !tb.TryDelete(h) {
		t.Fatal("first delete must succeed")
	}
	if !tb.IsDeleted(h) {
		t.Fatal("deleted bit not set")
	}
	if tb.TryDelete(h) {
		t.Fatal("second delete must fail")
	}
	if tb.TryReadLock(h) {
		t.Fatal("read lock on deleted header must fail")
	}
	if tb.TryWriteLock(h) {
		t.Fatal("write lock on deleted header must fail")
	}
}

func TestDataWord(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	if tb.LoadData(h) != 0 {
		t.Fatal("fresh data word must be zero")
	}
	tb.StoreData(h, 0xDEADBEEF)
	if tb.LoadData(h) != 0xDEADBEEF {
		t.Fatal("data word round trip failed")
	}
	h2 := tb.Alloc()
	if tb.LoadData(h2) != 0 {
		t.Fatal("neighbouring header data leaked")
	}
}

func TestSegmentBoundary(t *testing.T) {
	tb := NewTable()
	var last uint64
	for i := 0; i < segmentSize+10; i++ {
		last = tb.Alloc()
		tb.StoreData(last, last*3)
	}
	// Spot-check across the segment boundary.
	for h := last - 20; h <= last; h++ {
		if tb.LoadData(h) != h*3 {
			t.Fatalf("data at %d corrupted", h)
		}
	}
}

// TestWriterMutualExclusion: concurrent writers incrementing a plain
// counter under the write lock must not lose updates.
func TestWriterMutualExclusion(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	var counter int64 // plain, protected by the header's write lock
	const goroutines = 8
	const rounds = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !tb.TryWriteLock(h) {
					t.Error("write lock failed on live header")
					return
				}
				counter++
				tb.WriteUnlock(h)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*rounds {
		t.Fatalf("lost updates: %d != %d", counter, goroutines*rounds)
	}
}

// TestReadersExcludeWriter: while any reader holds the lock, a writer
// must not enter. The writer flips a flag that readers check.
func TestReadersExcludeWriter(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	var inWrite atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tb.TryReadLock(h) {
					if inWrite.Load() {
						violations.Add(1)
					}
					tb.ReadUnlock(h)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if !tb.TryWriteLock(h) {
			t.Fatal("write lock failed")
		}
		inWrite.Store(true)
		inWrite.Store(false)
		tb.WriteUnlock(h)
	}
	close(stop)
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d reader-during-writer violations", violations.Load())
	}
}

// TestConcurrentDeleteSingleWinner: exactly one of many racing deletes
// succeeds.
func TestConcurrentDeleteSingleWinner(t *testing.T) {
	for round := 0; round < 100; round++ {
		tb := NewTable()
		h := tb.Alloc()
		var wins atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if tb.TryDelete(h) {
					wins.Add(1)
				}
			}()
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d delete winners", round, wins.Load())
		}
	}
}

// Property: any interleaving of balanced lock/unlock sequences leaves the
// header in the unlocked state.
func TestLockStateProperty(t *testing.T) {
	f := func(ops []bool) bool {
		tb := NewTable()
		h := tb.Alloc()
		for _, isWrite := range ops {
			if isWrite {
				if !tb.TryWriteLock(h) {
					return false
				}
				tb.WriteUnlock(h)
			} else {
				if !tb.TryReadLock(h) {
					return false
				}
				tb.ReadUnlock(h)
			}
		}
		// After balanced use, both lock modes must be available.
		if !tb.TryWriteLock(h) {
			return false
		}
		tb.WriteUnlock(h)
		return !tb.IsDeleted(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Version words exist only from the first store of a value other than
// InitialVersion into their segment; until then, and afterwards for every
// header nobody stored to, LoadVersion reads InitialVersion.
func TestVersionWordsMaterialiseOnDemand(t *testing.T) {
	tb := NewTable()
	var hs []uint64
	for i := 0; i < segmentSize+10; i++ { // two segments
		hs = append(hs, tb.Alloc())
	}
	for _, h := range hs {
		tb.StoreVersion(h, InitialVersion)
	}
	if tb.versions[0].Load() != nil || tb.versions[1].Load() != nil {
		t.Fatal("storing InitialVersion materialised version words")
	}
	tb.StoreVersion(hs[7], 42)
	if tb.versions[0].Load() == nil || tb.versions[1].Load() != nil {
		t.Fatal("storing 42 into segment 0 must materialise exactly that segment")
	}
	for i, h := range hs {
		want := uint64(InitialVersion)
		if i == 7 {
			want = 42
		}
		if got := tb.LoadVersion(h); got != want {
			t.Fatalf("LoadVersion(header %d) = %d; want %d", i, got, want)
		}
	}
	tb.StoreVersion(hs[7], InitialVersion)
	if got := tb.LoadVersion(hs[7]); got != InitialVersion {
		t.Fatalf("storing InitialVersion back reads %d", got)
	}
}

// Racing first stores into one segment must not lose a version, and a
// reader must only ever see InitialVersion or what its header's owner
// stored.
func TestVersionWordsMaterialiseUnderRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		tb := NewTable()
		const owners = 8
		hs := make([]uint64, owners)
		for i := range hs {
			hs[i] = tb.Alloc()
		}
		var wg sync.WaitGroup
		for i, h := range hs {
			wg.Add(2)
			go func(i int, h uint64) {
				defer wg.Done()
				tb.StoreVersion(h, uint64(100+i))
			}(i, h)
			go func(i int, h uint64) {
				defer wg.Done()
				for n := 0; n < 100; n++ {
					if v := tb.LoadVersion(h); v != InitialVersion && v != uint64(100+i) {
						t.Errorf("header %d read version %d", i, v)
						return
					}
				}
			}(i, h)
		}
		wg.Wait()
		for i, h := range hs {
			if v := tb.LoadVersion(h); v != uint64(100+i) {
				t.Fatalf("round %d: header %d ended at version %d", round, i, v)
			}
		}
	}
}

func TestFreshHeader(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	tb.LockFresh(h)
	if tb.IsDeleted(h) {
		t.Fatal("fresh header reads deleted")
	}
	live := make(chan bool)
	go func() { live <- tb.IsLive(h) }()
	tb.WriteUnlock(h)
	if !<-live {
		t.Fatal("IsLive after the fresh header's unlock = false")
	}
	if !tb.TryReadLock(h) {
		t.Fatal("TryReadLock on an unlocked header failed")
	}
	tb.ReadUnlock(h)

	d := tb.Alloc()
	tb.LockFresh(d)
	tb.DeleteLocked(d)
	if tb.IsLive(d) || tb.TryWriteLock(d) {
		t.Fatal("a fresh header deleted under its lock reads live")
	}
}

// A freed slot comes back from Alloc under a new generation; the old
// handle then reads as deleted through every check.
func TestFreeRecyclesUnderNewGeneration(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	tb.StoreData(h, 0xBEEF)
	if !tb.TryDelete(h) {
		t.Fatal("delete failed")
	}
	tb.Free([]uint64{h})
	if n := tb.Count(); n != 0 {
		t.Fatalf("Count after Free = %d; want 0", n)
	}
	h2 := tb.Alloc()
	if h2&idxMask != h&idxMask || h2 == h {
		t.Fatalf("Alloc after Free = %#x; want slot %d under a new generation", h2, h&idxMask)
	}
	if tb.Count() != 1 {
		t.Fatalf("Count = %d; want 1", tb.Count())
	}
	if tb.LoadData(h2) != 0 || tb.IsDeleted(h2) || !tb.IsLive(h2) {
		t.Fatal("recycled header is not live with a zero data word")
	}
	if tb.TryReadLock(h) || tb.TryWriteLock(h) || tb.TryDelete(h) || !tb.IsDeleted(h) || tb.IsLive(h) {
		t.Fatal("stale handle reads live")
	}
	tb.LockFresh(h2)
	if tb.IsLive(h) {
		t.Fatal("stale handle reads live while its slot is fresh")
	}
	tb.WriteUnlock(h2)
	if !tb.TryReadLock(h2) {
		t.Fatal("read lock on the new occupant failed")
	}
	tb.ReadUnlock(h2)
}

// The generation wraps inside its field: a slot freed at the largest
// generation comes back at generation 0, still a non-⊥ handle.
func TestGenerationWraps(t *testing.T) {
	tb := NewTable()
	h := tb.Alloc()
	tb.word(h).Store(genMask | deletedBit) // as if freed 2^29-1 times
	tb.Free([]uint64{genMask | h})
	if h2 := tb.Alloc(); h2 != h {
		t.Fatalf("Alloc after the last generation = %#x; want %#x", h2, h)
	}
}

func TestFreeRejectsLiveOrFreedHeaders(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	tb := NewTable()
	live := tb.Alloc()
	mustPanic("Free of a live header", func() { tb.Free([]uint64{live}) })
	dead := tb.Alloc()
	tb.TryDelete(dead)
	tb.Free([]uint64{dead})
	mustPanic("double Free", func() { tb.Free([]uint64{dead}) })
}

// Allocators race with a freer that recycles their deleted headers in
// batches, as an epoch domain's drains do. No slot may be handed to two
// owners at once, and Count must track the headers outstanding.
func TestConcurrentAllocFree(t *testing.T) {
	tb := NewTable()
	const workers, rounds = 4, 20000
	var owner [1 << 17]atomic.Int32 // by slot index
	retired := make(chan uint64, 1024)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := tb.Alloc()
				if !owner[h&idxMask].CompareAndSwap(0, w) {
					t.Errorf("slot %d handed out while owned by %d", h&idxMask, owner[h&idxMask].Load())
					return
				}
				tb.StoreData(h, uint64(w))
				if tb.LoadData(h) != uint64(w) || !tb.TryDelete(h) {
					t.Errorf("slot %d changed under its owner", h&idxMask)
					return
				}
				owner[h&idxMask].Store(0)
				retired <- h
			}
		}(int32(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch []uint64
		for h := range retired {
			if batch = append(batch, h); len(batch) == 64 {
				tb.Free(batch)
				batch = batch[:0]
			}
		}
		tb.Free(batch)
	}()
	wg.Wait()
	close(retired)
	<-done
	if n := tb.Count(); n != 0 {
		t.Fatalf("Count = %d after every header was freed", n)
	}
	// At most workers + 1024 + 64 headers are out at a time; the slack
	// covers Allocs that find every list empty while a Free is pushing.
	if hw := tb.next.Load() - 1; hw > 4096 {
		t.Fatalf("%d slots used for at most %d headers out at a time", hw, workers+1024+64)
	}
}
