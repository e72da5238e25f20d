package oakmap

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNavigationNeverSkipsPresentKey: on a 4-shard map whose neighbours
// churn on every side, a key present for the whole test bounds every
// navigation answer — FirstKey and CeilingKey(lo) never return a key past
// it, FloorKey(hi) never one before it, and none of them reports the map
// empty. A shard whose candidate keeps being removed under the query must
// still answer with a key it found live, not drop out of the reduction.
func TestNavigationNeverSkipsPresentKey(t *testing.T) {
	const (
		present = 500 // never removed
		span    = 800 // churned keys are [0, span) minus present
		lo, hi  = 100, 700
		rounds  = 3000  // queries of each kind, at least
		churns  = 20000 // neighbour writes to run the queries against, at least
	)
	m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
		&Options{ChunkCapacity: 16, BlockSize: 1 << 20, Shards: 4})
	defer m.Close()
	m.ZC().Put(present, "present")
	for k := uint64(900); k < 910; k++ { // a tail past every churned key
		m.ZC().Put(k, "tail")
	}
	var stop atomic.Bool
	var churned atomic.Int64
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 88))
			for !stop.Load() {
				k := rng.Uint64N(span)
				if k == present {
					continue
				}
				var err error
				if rng.IntN(2) == 0 {
					err = m.ZC().Put(k, "churn")
				} else {
					err = m.ZC().Remove(k)
				}
				if err != nil {
					t.Errorf("churn on %d: %v", k, err)
					return
				}
				churned.Add(1)
			}
		}(g)
	}
	defer func() {
		stop.Store(true)
		churn.Wait()
	}()
	for r := 0; r < rounds || churned.Load() < churns; r++ {
		if k, ok := m.FirstKey(); !ok || k > present {
			t.Fatalf("round %d: FirstKey = %d, %v with %d present", r, k, ok, present)
		}
		if k, ok := m.CeilingKey(lo); !ok || k < lo || k > present {
			t.Fatalf("round %d: CeilingKey(%d) = %d, %v with %d present", r, lo, k, ok, present)
		}
		if k, ok := m.FloorKey(hi); !ok || k > hi || k < present {
			t.Fatalf("round %d: FloorKey(%d) = %d, %v with %d present", r, hi, k, ok, present)
		}
	}
}
