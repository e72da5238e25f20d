package core

// Chaos harness: drives the map with the fault-injection points armed
// (internal/faultpoint), forcing the rare interleavings the paper's
// correctness arguments are about — allocation failure mid-operation,
// CAS losses, mid-rebalance readers, deleted-bit races — and validates
// the survivor invariants: no lost updates, no resurrected deletes,
// scans see a consistent frontier, histories stay linearizable.
//
// Every scenario asserts its fault point's hit/fire counters, which is
// what makes the injection demonstrably load-bearing: with the point
// disarmed the exercised path is not reached at all (the counters would
// read zero), so plain stress cannot substitute for these tests.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/epoch"
	"oakmap/internal/faultpoint"
	"oakmap/internal/lincheck"
)

// armAll guards global fault-point state: chaos tests must not run in
// parallel, and every test disarms on exit even on failure.
func disarmOnExit(t *testing.T) {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
}

// --- Category: allocation failure (arena/alloc-fail) ---

// TestChaosAllocFailDeterministic injects a single allocation failure
// and checks the operation unwinds cleanly: error surfaced, no state
// change, and the very next attempt succeeds.
func TestChaosAllocFailDeterministic(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)

	arena.FpAllocFail.Arm(faultpoint.OnHit(1))
	err := m.Put(ik(1), []byte("v1"))
	if !errors.Is(err, arena.ErrInjected) {
		t.Fatalf("Put under injected alloc failure: err = %v; want ErrInjected", err)
	}
	if arena.FpAllocFail.Fires() != 1 {
		t.Fatalf("fires = %d; want 1", arena.FpAllocFail.Fires())
	}
	if _, ok := m.Get(ik(1)); ok {
		t.Fatal("failed Put left the key visible")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after failed Put; want 0", m.Len())
	}
	arena.FpAllocFail.Disarm()
	if err := m.Put(ik(1), []byte("v1")); err != nil {
		t.Fatalf("Put after disarm: %v", err)
	}
	if got, _ := getString(t, m, ik(1)); got != "v1" {
		t.Fatalf("Get = %q; want v1", got)
	}
}

// TestChaosAllocFailOracle runs a long operation script with allocation
// failures firing probabilistically (seeded, reproducible) against a
// sequential oracle: a failed operation must behave as a no-op, and the
// map must match the oracle exactly afterwards. This drives the error
// unwind paths (key release, linked-entry-with-⊥-value reuse, value
// resize failure) that real workloads reach only at memory exhaustion.
func TestChaosAllocFailOracle(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)
	oracle := map[string]string{}
	rng := rand.New(rand.NewPCG(2026, 0xa110c))

	arena.FpAllocFail.Arm(faultpoint.WithProb(0.2, 42))
	injected := 0
	for i := 0; i < 4000; i++ {
		k := ik(int(rng.Uint64() % 64))
		ks := string(k)
		switch rng.Uint64() % 5 {
		case 0:
			v := fmt.Sprintf("p-%d", i)
			if err := m.Put(k, []byte(v)); err != nil {
				if !errors.Is(err, arena.ErrInjected) {
					t.Fatalf("put: %v", err)
				}
				injected++
			} else {
				oracle[ks] = v
			}
		case 1:
			v := fmt.Sprintf("a-%d", i)
			ok, err := m.PutIfAbsent(k, []byte(v))
			if err != nil {
				if !errors.Is(err, arena.ErrInjected) {
					t.Fatalf("putIfAbsent: %v", err)
				}
				injected++
				break
			}
			if _, had := oracle[ks]; ok == had {
				t.Fatalf("putIfAbsent(%s) = %v but oracle had=%v", ks, ok, had)
			}
			if ok {
				oracle[ks] = v
			}
		case 2:
			// Compute with a resize so the allocation-failure path inside
			// WBuffer.Resize is reachable; on error the value must be
			// untouched (Resize fails before any mutation).
			nv := fmt.Sprintf("c-%d-%d", i, rng.Uint64()%100)
			ok, err := m.ComputeIfPresent(k, func(w *WBuffer) error {
				return w.Set([]byte(nv))
			})
			if err != nil {
				if !errors.Is(err, arena.ErrInjected) {
					t.Fatalf("compute: %v", err)
				}
				injected++
				break
			}
			if _, had := oracle[ks]; ok != had {
				t.Fatalf("compute(%s) = %v but oracle had=%v", ks, ok, had)
			}
			if ok {
				oracle[ks] = nv
			}
		case 3:
			ok, err := m.Remove(k) // removes never allocate; must not fail
			if err != nil {
				t.Fatalf("remove: %v", err)
			}
			if _, had := oracle[ks]; ok != had {
				t.Fatalf("remove(%s) = %v but oracle had=%v", ks, ok, had)
			}
			delete(oracle, ks)
		case 4:
			got, ok := getString(t, m, k)
			want, had := oracle[ks]
			if ok != had || (had && got != want) {
				t.Fatalf("get(%s) = (%q,%v); oracle (%q,%v)", ks, got, ok, want, had)
			}
		}
	}
	if arena.FpAllocFail.Fires() == 0 || injected == 0 {
		t.Fatalf("alloc-fail never fired (fires=%d, surfaced=%d): injection not load-bearing",
			arena.FpAllocFail.Fires(), injected)
	}
	arena.FpAllocFail.Disarm()

	// Full-state comparison: scan must reproduce the oracle exactly.
	got := map[string]string{}
	m.Ascend(nil, nil, func(kr uint64, h ValueHandle) bool {
		b, err := m.CopyValue(h, nil)
		if err != nil {
			t.Fatalf("read during final scan: %v", err)
		}
		got[string(m.KeyBytes(kr))] = string(b)
		return true
	})
	if len(got) != len(oracle) {
		t.Fatalf("final scan has %d keys; oracle %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if got[k] != v {
			t.Fatalf("key %x = %q; oracle %q", k, got[k], v)
		}
	}
	t.Logf("alloc-fail: %d injected failures over 4000 ops, state exact", injected)
}

// --- Category: CAS failure (chunk/link-cas, chunk/publish-fail) ---

// TestChaosPublishFailDiscard forces Publish to fail exactly once during
// an insert, driving putAttempt through its lost-race killValue (allocate
// a value, fail to publish, reclaim it, retry) that plain stress reaches
// only when a rebalance wins a photo-finish race.
func TestChaosPublishFailDiscard(t *testing.T) {
	disarmOnExit(t)
	m := New(&Options{ChunkCapacity: 16, Pool: testPool(t)})
	defer m.Close()

	chunk.FpPublishFail.Arm(faultpoint.OnHit(1))
	if err := m.Put(ik(1), []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if f := chunk.FpPublishFail.Fires(); f != 1 {
		t.Fatalf("publish-fail fires = %d; want 1", f)
	}
	if got, _ := getString(t, m, ik(1)); got != "v1" {
		t.Fatalf("Get = %q; want v1", got)
	}
	assertOneDiscard(t, m, ik(1), []byte("v1"))
}

// assertOneDiscard proves that a map holding the single mapping key→val
// discarded exactly one value on the way: header 1 went to the value
// that lost its install race and reads deleted, header 2 to the published
// one, and once the limbo drains the arena holds exactly one key and one
// value — so a discard that leaks its span fails as well.
func assertOneDiscard(t *testing.T, m *Map, key, val []byte) {
	t.Helper()
	if n := m.HeaderCount(); n != 2 {
		t.Fatalf("HeaderCount = %d; want 2 (one discarded, one published)", n)
	}
	if !m.IsDeleted(1) {
		t.Fatal("first-allocated handle reads live: the lost-race killValue was not taken")
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo did not drain")
	}
	round := func(n int) int64 { return int64(n+7) &^ 7 }
	if got, want := m.LiveBytes(), round(len(key))+round(len(val)); got != want {
		t.Fatalf("LiveBytes = %d after quiesce; want %d (one key + one value): the discarded span leaked", got, want)
	}
}

// TestChaosCASFailLinearizability records concurrent multi-key histories
// while the entry-link CAS and Publish are failing with seeded
// probability: every operation internally retries through the loss paths
// and the resulting histories must still be linearizable.
func TestChaosCASFailLinearizability(t *testing.T) {
	disarmOnExit(t)
	const histories = 60
	const threads = 4
	const opsPerThread = 4
	keys := [][]byte{ik(10), ik(42), ik(55)}

	chunk.FpLinkCAS.Arm(faultpoint.WithProb(0.3, 7))
	chunk.FpPublishFail.Arm(faultpoint.WithProb(0.3, 8))

	for h := 0; h < histories; h++ {
		m := New(&Options{ChunkCapacity: 16, Pool: testPool(t)})
		for i := 0; i < 64; i++ {
			if i == 10 || i == 42 || i == 55 {
				continue
			}
			m.Put(ik(i), iv(i)) // neighbour churn under CAS chaos
		}
		var clock atomic.Uint64
		recs := make([][]lincheck.Op, threads)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(h*threads+g), 1234))
				for i := 0; i < opsPerThread; i++ {
					kind := lincheck.Kind(rng.Uint64() % 6)
					key := keys[rng.Uint64()%uint64(len(keys))]
					arg := fmt.Sprintf("g%d-%d", g, i)
					recs[g] = append(recs[g], runRecordedOp(t, m, &clock, kind, key, arg))
				}
			}(g)
		}
		wg.Wait()
		var all []lincheck.Op
		for _, rs := range recs {
			all = append(all, rs...)
		}
		if !lincheck.Linearizable(all) {
			for _, o := range all {
				t.Logf("  %v", o)
			}
			t.Fatalf("history %d under CAS chaos is not linearizable", h)
		}
		m.Close()
	}
	if chunk.FpLinkCAS.Fires() == 0 || chunk.FpPublishFail.Fires() == 0 {
		t.Fatalf("CAS faults never fired (link-cas=%d publish=%d): not load-bearing",
			chunk.FpLinkCAS.Fires(), chunk.FpPublishFail.Fires())
	}
	t.Logf("CAS chaos: link-cas fired %d, publish-fail fired %d",
		chunk.FpLinkCAS.Fires(), chunk.FpPublishFail.Fires())
}

// --- Category: rebalance windows (core/rebalance-*) ---

// TestChaosRebalanceWindows parks a rebalancer inside each of its three
// danger windows (frozen, split-built, index-stale) and verifies that
// readers — gets, ascending and descending scans — observe the full,
// correct key set throughout, then that the map is intact after the
// rebalance completes. Updates are additionally exercised in the
// index-stale window, where they must recover via ReplacedBy forwarding.
func TestChaosRebalanceWindows(t *testing.T) {
	points := []struct {
		name    string
		point   *faultpoint.Point
		mutable bool // updates can complete while parked in this window
	}{
		{"freeze", FpRebalanceFreeze, false},
		{"split", FpRebalanceSplit, false},
		{"index", FpRebalanceIndex, true},
	}
	const n = 64
	for _, tc := range points {
		t.Run(tc.name, func(t *testing.T) {
			disarmOnExit(t)
			m := newTestMap(t, 16)
			for i := 0; i < n; i++ {
				mustPut(t, m, ik(i), iv(i))
			}

			g := faultpoint.NewGate()
			defer g.Open()
			tc.point.Arm(g.Hook(1))

			target := m.locateChunk(ik(n / 2))
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.rebalance(target)
			}()
			if !g.WaitArrival(10 * time.Second) {
				t.Fatal("rebalancer never reached the window")
			}

			// Mid-window reads: every key must be found with its value.
			for i := 0; i < n; i++ {
				if got, ok := getString(t, m, ik(i)); !ok || got != string(iv(i)) {
					t.Fatalf("mid-%s Get(%d) = (%q,%v)", tc.name, i, got, ok)
				}
			}
			checkFullScans(t, m, n, "mid-"+tc.name)

			if tc.mutable {
				// The chunk chain is already spliced; an overwrite of a key
				// in the rebalanced range must land via forwarding even
				// though the index still points at the retired chunk.
				if err := m.Put(ik(n/2), []byte("updated")); err != nil {
					t.Fatalf("mid-%s Put: %v", tc.name, err)
				}
			}

			g.Open()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("rebalancer did not finish after gate opened")
			}
			tc.point.Disarm()
			if tc.point.Hits() < 1 {
				t.Fatalf("window %s never hit: not load-bearing", tc.point.Name())
			}

			for i := 0; i < n; i++ {
				want := string(iv(i))
				if tc.mutable && i == n/2 {
					want = "updated"
				}
				if got, ok := getString(t, m, ik(i)); !ok || got != want {
					t.Fatalf("post-%s Get(%d) = (%q,%v); want %q", tc.name, i, got, ok, want)
				}
			}
			checkFullScans(t, m, n, "post-"+tc.name)
		})
	}
}

// checkFullScans asserts both scan directions report exactly keys
// 0..n-1, strictly ordered, with no duplicates — the consistent-frontier
// invariant for a key set that is stable during the scan.
func checkFullScans(t *testing.T, m *Map, n int, when string) {
	t.Helper()
	var asc []int
	m.Ascend(nil, nil, func(kr uint64, h ValueHandle) bool {
		asc = append(asc, kint(m, kr))
		return true
	})
	var desc []int
	m.Descend(nil, nil, func(kr uint64, h ValueHandle) bool {
		desc = append(desc, kint(m, kr))
		return true
	})
	if len(asc) != n || len(desc) != n {
		t.Fatalf("%s: scans saw %d asc / %d desc keys; want %d", when, len(asc), len(desc), n)
	}
	for i := 0; i < n; i++ {
		if asc[i] != i {
			t.Fatalf("%s: ascending scan[%d] = %d", when, i, asc[i])
		}
		if desc[i] != n-1-i {
			t.Fatalf("%s: descending scan[%d] = %d", when, i, desc[i])
		}
	}
}

// --- Category: value-header races (core/put-race, core/deleted-bit) ---

// TestChaosPutRemoveRace parks a Put in the window after it has observed
// a live value and before it acts, lets a Remove delete that value, and
// releases the Put: it must take the "value was deleted concurrently"
// retry of Algorithm 2 and re-insert, never resurrecting the old value
// or losing its own.
func TestChaosPutRemoveRace(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)
	k := ik(5)
	mustPut(t, m, k, []byte("old"))

	g := faultpoint.NewGate()
	defer g.Open()
	FpPutRace.Arm(g.Hook(1))

	done := make(chan error, 1)
	go func() {
		done <- m.Put(k, []byte("new"))
	}()
	if !g.WaitArrival(10 * time.Second) {
		t.Fatal("Put never reached the race window")
	}

	if ok, err := m.Remove(k); err != nil || !ok {
		t.Fatalf("Remove = (%v,%v); want (true,nil)", ok, err)
	}
	g.Open()
	if err := <-done; err != nil {
		t.Fatalf("Put: %v", err)
	}
	FpPutRace.Disarm()
	if FpPutRace.Hits() < 1 {
		t.Fatal("put-race window never hit: not load-bearing")
	}

	// The put linearizes after the remove: its value must be present.
	if got, ok := getString(t, m, k); !ok || got != "new" {
		t.Fatalf("Get = (%q,%v); want (new,true)", got, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d; want 1", m.Len())
	}
}

// TestChaosDeletedBitWindow parks a Remove in the window right after the
// value's deleted bit is set (data already privatized) and, while it is
// parked, runs the operations that race with that window: reads must see
// "absent"/ErrConcurrentModification, and an insert over the same entry
// plus a burst of other inserts must not be corrupted when the remover
// resumes. This is the deterministic regression test for killValue's
// privatize-before-delete ordering.
func TestChaosDeletedBitWindow(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)
	defer m.Close()
	k := ik(3)
	mustPut(t, m, k, []byte("doomed"))
	h0, ok := m.Get(k)
	if !ok {
		t.Fatal("setup Get failed")
	}

	g := faultpoint.NewGate()
	defer g.Open()
	FpDeletedBit.Arm(g.Hook(1))

	done := make(chan bool, 1)
	go func() {
		ok, err := m.Remove(k)
		if err != nil {
			t.Errorf("Remove: %v", err)
		}
		done <- ok
	}()
	if !g.WaitArrival(10 * time.Second) {
		t.Fatal("Remove never reached the deleted-bit window")
	}

	// Mid-window: the handle is deleted for every observer.
	if _, ok := m.Get(k); ok {
		t.Fatal("Get found a value whose deleted bit is set")
	}
	if _, err := m.CopyValue(h0, nil); !errors.Is(err, ErrConcurrentModification) {
		t.Fatalf("CopyValue on deleted handle: err = %v; want ErrConcurrentModification", err)
	}
	// Insert over the deleted entry, then churn more inserts (and their
	// allocations) while the remover is still parked.
	if err := m.Put(k, []byte("phoenix")); err != nil {
		t.Fatalf("Put over deleted value: %v", err)
	}
	for i := 100; i < 108; i++ {
		if _, err := m.PutIfAbsent(ik(i), []byte("filler")); err != nil {
			t.Fatalf("filler insert: %v", err)
		}
	}

	g.Open()
	if removed := <-done; !removed {
		t.Fatal("Remove reported false after setting the deleted bit")
	}
	FpDeletedBit.Disarm()
	if FpDeletedBit.Hits() < 1 {
		t.Fatal("deleted-bit window never hit: not load-bearing")
	}

	// Nothing the resumed remover did may have clobbered live state.
	if got, ok := getString(t, m, k); !ok || got != "phoenix" {
		t.Fatalf("Get = (%q,%v); want (phoenix,true)", got, ok)
	}
	for i := 100; i < 108; i++ {
		if got, ok := getString(t, m, ik(i)); !ok || got != "filler" {
			t.Fatalf("filler key %d = (%q,%v); want (filler,true)", i, got, ok)
		}
	}
}

// TestChaosHeaderLockContention stretches every value write-lock hold
// (valuePut/valueCompute) while readers and writers hammer one key: the
// header spinlock must serialize them without lost updates.
func TestChaosHeaderLockContention(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 64)
	k := ik(9)
	var buf [8]byte
	mustPut(t, m, k, buf[:])

	FpHeaderLock.Arm(faultpoint.Hook{Decide: func(hit int64) bool {
		if hit%3 == 0 {
			runtime.Gosched() // widen the critical section
		}
		return false
	}})

	const goroutines = 4
	const opsEach = 300
	var wg sync.WaitGroup
	var applied atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				ok, err := m.ComputeIfPresent(k, func(w *WBuffer) error {
					b := w.Bytes()
					binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)+1)
					return nil
				})
				if err != nil {
					t.Errorf("compute: %v", err)
					return
				}
				if ok {
					applied.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	FpHeaderLock.Disarm()
	if FpHeaderLock.Hits() == 0 {
		t.Fatal("header-lock point never hit")
	}
	h, ok := m.Get(k)
	if !ok {
		t.Fatal("key vanished")
	}
	b, err := m.CopyValue(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.BigEndian.Uint64(b)); got != applied.Load() {
		t.Fatalf("LOST UPDATE: counter = %d, applied computes = %d", got, applied.Load())
	}
}

// --- The storm: everything at once ---

// TestChaosMixedStorm runs the full mixed workload — put, putIfAbsent,
// remove, get, compute, ascending and descending scans — across
// thousands of keys with every fault category firing (seeded), then
// validates the survivor invariants:
//
//   - no lost updates: counter cells mutated only by atomic computes sum
//     to exactly the number of successful computes;
//   - no resurrected deletes: tombstone keys removed before the storm and
//     never reinserted stay invisible to every scan and lookup;
//   - consistent scan frontier: resident keys (never removed) are seen by
//     every concurrent scan exactly once, in strict key order.
func TestChaosMixedStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm skipped in -short mode")
	}
	disarmOnExit(t)
	const (
		keySpace    = 4096
		counterBase = 1 << 20
		counters    = 8
		workers     = 6
		opsPerW     = 3000
	)
	m := newTestMap(t, 64)

	// Seed: residents (k%8==0) stay forever; tombstones (k%8==1) are
	// inserted then removed and must never come back; counters hold
	// 8-byte big-endian values mutated only via compute.
	residents := 0
	for k := 0; k < keySpace; k++ {
		switch k % 8 {
		case 0:
			mustPut(t, m, ik(k), []byte(fmt.Sprintf("r-%d", k)))
			residents++
		case 1:
			mustPut(t, m, ik(k), []byte("tomb"))
			if ok, err := m.Remove(ik(k)); err != nil || !ok {
				t.Fatalf("tombstone remove(%d) = (%v,%v)", k, ok, err)
			}
		}
	}
	for c := 0; c < counters; c++ {
		mustPut(t, m, ik(counterBase+c), make([]byte, 8))
	}

	// Arm the world. Branch faults fire with seeded probability; pause
	// points yield to shake up scheduling.
	gosched := func(every int64) faultpoint.Hook {
		return faultpoint.Hook{Decide: func(hit int64) bool {
			if hit%every == 0 {
				runtime.Gosched()
			}
			return false
		}}
	}
	arena.FpAllocFail.Arm(faultpoint.WithProb(0.001, 101))
	arena.FpFreeListScan.Arm(gosched(13))
	chunk.FpLinkCAS.Arm(faultpoint.WithProb(0.01, 102))
	chunk.FpPublishFail.Arm(faultpoint.WithProb(0.01, 103))
	FpRebalanceFreeze.Arm(gosched(2))
	FpRebalanceSplit.Arm(gosched(2))
	FpRebalanceIndex.Arm(gosched(2))
	FpHeaderLock.Arm(gosched(7))
	FpDeletedBit.Arm(gosched(5))
	FpPutRace.Arm(gosched(11))
	epoch.FpAdvance.Arm(gosched(3))
	epoch.FpDrain.Arm(gosched(2))

	var computeTotal atomic.Int64
	var injectedErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0x57032))
			for i := 0; i < opsPerW; i++ {
				k := int(rng.Uint64() % keySpace)
				switch rng.Uint64() % 12 {
				case 0, 1, 2: // put (residents only overwritten, tombstones shifted off)
					if k%8 == 1 {
						k++
					}
					v := fmt.Sprintf("v-%d-%d", k, i)
					if err := m.Put(ik(k), []byte(v)); err != nil {
						if !errors.Is(err, arena.ErrInjected) {
							t.Errorf("put: %v", err)
							return
						}
						injectedErrs.Add(1)
					}
				case 3: // putIfAbsent on churn keys
					if k%8 < 2 {
						k += 2
					}
					if _, err := m.PutIfAbsent(ik(k), []byte("pia")); err != nil {
						if !errors.Is(err, arena.ErrInjected) {
							t.Errorf("putIfAbsent: %v", err)
							return
						}
						injectedErrs.Add(1)
					}
				case 4, 5: // remove churn keys (never residents or tombstones)
					if k%8 < 2 {
						k += 2
					}
					if _, err := m.Remove(ik(k)); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				case 6, 7: // atomic counter bump (fixed size: never allocates)
					c := counterBase + int(rng.Uint64()%counters)
					ok, err := m.ComputeIfPresent(ik(c), func(wb *WBuffer) error {
						b := wb.Bytes()
						binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)+1)
						return nil
					})
					if err != nil {
						t.Errorf("compute: %v", err)
						return
					}
					if !ok {
						t.Errorf("LOST COUNTER: %d vanished", c)
						return
					}
					computeTotal.Add(1)
				case 8: // ascending frontier validation
					if !validateFrontier(t, m, keySpace, residents, false) {
						return
					}
				case 9: // descending frontier validation
					if !validateFrontier(t, m, keySpace, residents, true) {
						return
					}
				default: // get
					if h, ok := m.Get(ik(k)); ok {
						if _, err := m.CopyValue(h, nil); err != nil &&
							!errors.Is(err, ErrConcurrentModification) {
							t.Errorf("get read: %v", err)
							return
						}
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	faultpoint.DisarmAll()
	if t.Failed() {
		return
	}

	// Load-bearing check: the branch faults must actually have fired.
	for _, p := range []*faultpoint.Point{arena.FpAllocFail, chunk.FpLinkCAS, chunk.FpPublishFail} {
		if p.Fires() == 0 {
			t.Errorf("%s never fired during the storm", p.Name())
		}
	}

	// Quiescent validation.
	if !validateFrontier(t, m, keySpace, residents, false) ||
		!validateFrontier(t, m, keySpace, residents, true) {
		t.Fatal("final frontier validation failed")
	}
	var sum int64
	for c := 0; c < counters; c++ {
		h, ok := m.Get(ik(counterBase + c))
		if !ok {
			t.Fatalf("counter %d missing at shutdown", c)
		}
		b, err := m.CopyValue(h, nil)
		if err != nil {
			t.Fatalf("counter read: %v", err)
		}
		sum += int64(binary.BigEndian.Uint64(b))
	}
	if sum != computeTotal.Load() {
		t.Fatalf("LOST UPDATES: counters sum to %d; %d computes succeeded",
			sum, computeTotal.Load())
	}
	t.Logf("storm: %d computes, %d injected alloc errors; fires: link-cas=%d publish=%d alloc=%d",
		computeTotal.Load(), injectedErrs.Load(),
		chunk.FpLinkCAS.Fires(), chunk.FpPublishFail.Fires(), arena.FpAllocFail.Fires())
}

// validateFrontier runs one full scan in the given direction and checks
// the storm's stable invariants: strict ordering, each resident key seen
// exactly once, tombstone keys never seen. Reports false (after flagging
// the error on t) on violation.
func validateFrontier(t *testing.T, m *Map, keySpace, residents int, descending bool) bool {
	t.Helper()
	prev := -1
	seenResidents := 0
	ok := true
	check := func(kr uint64, h ValueHandle) bool {
		k := kint(m, kr)
		if prev >= 0 {
			if !descending && k <= prev {
				t.Errorf("ORDER VIOLATION: %d after %d (ascending)", k, prev)
				ok = false
				return false
			}
			if descending && k >= prev {
				t.Errorf("ORDER VIOLATION: %d after %d (descending)", k, prev)
				ok = false
				return false
			}
		}
		prev = k
		if k < keySpace {
			switch k % 8 {
			case 0:
				seenResidents++
			case 1:
				t.Errorf("RESURRECTED DELETE: tombstone key %d visible", k)
				ok = false
				return false
			}
		}
		return true
	}
	if descending {
		m.Descend(nil, nil, check)
	} else {
		m.Ascend(nil, nil, check)
	}
	if ok && seenResidents != residents {
		t.Errorf("FRONTIER VIOLATION: saw %d of %d residents (%s)",
			seenResidents, residents, map[bool]string{true: "desc", false: "asc"}[descending])
		ok = false
	}
	return ok
}

// --- Category: epoch-reclamation windows (epoch/advance, epoch/drain) ---

// TestChaosEpochWindows jitters the scheduler inside the epoch advance
// (slot scan complete, global CAS pending) and inside the limbo drain
// (bucket privatized, frees pending) while a churn-plus-scan storm runs
// with key and value reclamation on. Scans that overlap stretched grace
// periods must still see a consistent frontier, and after quiescing the
// limbo must drain with zero retained key space.
func TestChaosEpochWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm skipped in -short mode")
	}
	disarmOnExit(t)
	m := newTestMap(t, 32)

	const keySpace = 2048
	residents := 0
	for k := 0; k < keySpace; k += 8 {
		mustPut(t, m, ik(k), []byte("resident"))
		residents++
	}

	gosched := func(every int64) faultpoint.Hook {
		return faultpoint.Hook{Decide: func(hit int64) bool {
			if hit%every == 0 {
				runtime.Gosched()
			}
			return false
		}}
	}
	epoch.FpAdvance.Arm(gosched(1))
	epoch.FpDrain.Arm(gosched(1))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xe90c4))
			for i := 0; i < 4000; i++ {
				k := int(rng.Uint64() % keySpace)
				if k%8 == 0 {
					k++ // residents stay put
				}
				switch rng.Uint64() % 4 {
				case 0, 1:
					if err := m.Put(ik(k), []byte("churn")); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 2:
					if _, err := m.Remove(ik(k)); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				default:
					dir := rng.Uint64()%2 == 0
					prev := -1
					seen := 0
					check := func(kr uint64, h ValueHandle) bool {
						kk := kint(m, kr)
						if prev >= 0 && ((dir && kk >= prev) || (!dir && kk <= prev)) {
							t.Errorf("ORDER VIOLATION: %d after %d", kk, prev)
							return false
						}
						prev = kk
						if kk%8 == 0 {
							seen++
						}
						return true
					}
					if dir {
						m.Descend(nil, nil, check)
					} else {
						m.Ascend(nil, nil, check)
					}
					if seen != residents {
						t.Errorf("FRONTIER VIOLATION: saw %d of %d residents mid-storm", seen, residents)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	faultpoint.DisarmAll()
	if t.Failed() {
		return
	}

	// The injection must have been load-bearing: both windows exercised.
	for _, fp := range []*faultpoint.Point{epoch.FpAdvance, epoch.FpDrain} {
		if fp.Hits() == 0 {
			t.Errorf("%s never hit during the storm", fp.Name())
		}
	}

	// Remove the churn, quiesce, and require full reclamation: the limbo
	// drains.
	for k := 0; k < keySpace; k++ {
		if k%8 == 0 {
			continue
		}
		if _, err := m.Remove(ik(k)); err != nil {
			t.Fatalf("drain remove: %v", err)
		}
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo failed to drain with no readers pinned")
	}
	rs := m.ReclaimStats()
	if rs.LimboItems != 0 || rs.LimboBytes != 0 {
		t.Fatalf("limbo not empty after quiesce: %+v", rs)
	}
}
