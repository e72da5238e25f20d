package core

// Regression tests for the descending scan (§4.4): the per-bypass stack
// iterator walks a chunk whose sorted prefix is interleaved with
// unsorted, linked-in suffix entries, and the cross-chunk walk resumes
// through prevChunk. Neither had coverage under concurrent rebalances:
// a split replaces the chunk mid-scan, a merge can make prevChunk land
// on a chunk whose range was already visited. These tests force both.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oakmap/internal/faultpoint"
)

// insertInterleaved fills m with even keys 0..2n-2 in ascending order
// (building sorted prefixes via rebalances), then odd keys in descending
// order so they land in the unsorted suffixes as bypass entries — the
// layout the per-bypass stack exists for.
func insertInterleaved(t *testing.T, m *Map, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(2*i), iv(2*i))
	}
	for i := n - 1; i >= 0; i-- {
		mustPut(t, m, ik(2*i+1), iv(2*i+1))
	}
}

// TestDescendDuringRebalanceWindows parks a rebalancer inside each
// danger window and runs full and bounded descending scans over chunks
// with populated unsorted suffixes: the per-bypass stack must yield
// every key exactly once, in strictly descending order, from frozen and
// forwarded chunks alike.
func TestDescendDuringRebalanceWindows(t *testing.T) {
	const n = 48 // keys 0..95
	for _, window := range []*faultpoint.Point{
		FpRebalanceFreeze, FpRebalanceSplit, FpRebalanceIndex,
	} {
		t.Run(window.Name(), func(t *testing.T) {
			t.Cleanup(faultpoint.DisarmAll)
			m := newTestMap(t, 16)
			insertInterleaved(t, m, n)

			g := faultpoint.NewGate()
			defer g.Open()
			window.Arm(g.Hook(1))

			done := make(chan struct{})
			go func() {
				defer close(done)
				m.rebalance(m.locateChunk(ik(n))) // a middle chunk
			}()
			if !g.WaitArrival(10 * time.Second) {
				t.Fatal("rebalancer never reached the window")
			}

			// Full descending scan mid-window.
			var keys []int
			m.Descend(nil, nil, func(kr uint64, h ValueHandle) bool {
				keys = append(keys, kint(m, kr))
				return true
			})
			if len(keys) != 2*n {
				t.Fatalf("mid-window descend saw %d keys; want %d", len(keys), 2*n)
			}
			for i, k := range keys {
				if k != 2*n-1-i {
					t.Fatalf("mid-window descend[%d] = %d; want %d", i, k, 2*n-1-i)
				}
			}
			// Bounded scan straddling the rebalanced chunk's range.
			var bounded []int
			m.Descend(ik(n-10), ik(n+10), func(kr uint64, h ValueHandle) bool {
				bounded = append(bounded, kint(m, kr))
				return true
			})
			if len(bounded) != 20 {
				t.Fatalf("bounded descend saw %d keys; want 20", len(bounded))
			}
			for i, k := range bounded {
				if k != n+9-i {
					t.Fatalf("bounded descend[%d] = %d; want %d", i, k, n+9-i)
				}
			}

			g.Open()
			<-done
			if window.Hits() < 1 {
				t.Fatalf("window %s never hit", window.Name())
			}
		})
	}
}

// TestDescendDuringConcurrentSplits runs descending scanners against a
// mutator that keeps forcing splits and merges (insert waves into the
// unsorted suffixes, then mass removals) while a fixed resident key set
// stays put: every scan must report the residents exactly once, in
// strictly descending order, regardless of which chunks were split,
// merged, or forwarded underneath it.
func TestDescendDuringConcurrentSplits(t *testing.T) {
	const residents = 128 // keys 0,8,16,... stay for the whole test
	const scanners = 3
	m := newTestMap(t, 32)
	for i := 0; i < residents; i++ {
		mustPut(t, m, ik(i*8), iv(i*8))
	}

	var stop atomic.Bool
	var mutWG, scanWG sync.WaitGroup

	// Mutator: waves of churn inserts between the residents (odd offsets
	// land as bypass entries), then removals to trigger merges.
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for wave := 0; !stop.Load(); wave++ {
			for i := 0; i < residents; i++ {
				for off := 1; off < 8; off += 2 {
					if err := m.Put(ik(i*8+off), iv(wave)); err != nil {
						t.Errorf("churn put: %v", err)
						return
					}
				}
			}
			for i := 0; i < residents; i++ {
				for off := 1; off < 8; off += 2 {
					if _, err := m.Remove(ik(i*8 + off)); err != nil {
						t.Errorf("churn remove: %v", err)
						return
					}
				}
			}
		}
	}()

	rebalancesBefore := m.Rebalances()
	for s := 0; s < scanners; s++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for iter := 0; iter < 60; iter++ {
				prev := -1
				seen := 0
				okScan := true
				m.Descend(nil, nil, func(kr uint64, h ValueHandle) bool {
					k := kint(m, kr)
					if prev >= 0 && k >= prev {
						t.Errorf("descend order violation: %d after %d", k, prev)
						okScan = false
						return false
					}
					prev = k
					if k%8 == 0 {
						seen++
					}
					return true
				})
				if okScan && seen != residents {
					t.Errorf("descend iter %d saw %d of %d residents", iter, seen, residents)
					return
				}
			}
		}()
	}

	// The scanners bound the test duration (60 iterations each); the
	// mutator churns until they finish.
	scanWG.Wait()
	stop.Store(true)
	mutWG.Wait()

	if m.Rebalances() == rebalancesBefore {
		t.Fatal("no rebalances happened during the scan storm: test not load-bearing")
	}
}
