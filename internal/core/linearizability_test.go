package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"oakmap/internal/lincheck"
)

// This file records concurrent histories against the real core map and
// checks them with the Wing & Gong-style searcher in internal/lincheck
// (extracted from here so the sharded front-end can reuse it — the
// engine's own self-tests live with the package). The histories target
// the paper's central correctness claim (§4.5): the point operations
// are linearizable.

// runRecordedOp executes one operation against m and returns its record
// with invocation/response timestamps from clock. Operation errors are
// reported through t (none of the recorded kinds should fail unless an
// error-injecting fault point is armed, which recorded histories avoid).
func runRecordedOp(t testing.TB, m *Map, clock *atomic.Uint64, kind lincheck.Kind, key []byte, arg string) lincheck.Op {
	r := lincheck.Op{Key: string(key), Kind: kind, Arg: arg}
	r.Inv = clock.Add(1)
	switch kind {
	case lincheck.Put:
		if err := m.Put(key, []byte(arg)); err != nil {
			t.Errorf("put: %v", err)
		}
	case lincheck.PutIfAbsent:
		ok, err := m.PutIfAbsent(key, []byte(arg))
		if err != nil {
			t.Errorf("putIfAbsent: %v", err)
		}
		r.RetBool = ok
	case lincheck.Remove:
		ok, err := m.Remove(key)
		if err != nil {
			t.Errorf("remove: %v", err)
		}
		r.RetBool = ok
	case lincheck.Get:
		if hd, ok := m.Get(key); ok {
			b, err := m.CopyValue(hd, nil)
			if err == nil {
				r.RetBool = true
				r.RetVal = string(b)
			}
			// A read racing a remove between Get and CopyValue observes
			// "absent": its linearization point is the failed read lock,
			// still within [Inv, Ret].
		}
	case lincheck.Upsert:
		err := m.PutIfAbsentComputeIfPresent(key, []byte(arg),
			func(w *WBuffer) error {
				// Append "|arg", resizing in place — the compute runs
				// atomically exactly once.
				cur := append([]byte(nil), w.Bytes()...)
				return w.Set(append(append(cur, '|'), arg...))
			})
		if err != nil {
			t.Errorf("upsert: %v", err)
		}
	case lincheck.Compute:
		ok, err := m.ComputeIfPresent(key, func(w *WBuffer) error {
			cur := append([]byte(nil), w.Bytes()...)
			return w.Set(append(append(cur, '#'), arg...))
		})
		if err != nil {
			t.Errorf("compute: %v", err)
		}
		r.RetBool = ok
	}
	r.Ret = clock.Add(1)
	return r
}

// TestSingleKeyLinearizability runs many small concurrent histories on
// one key of a real map (tiny chunks, so the key's chunk rebalances under
// the churn of neighbouring keys) and verifies each is linearizable.
func TestSingleKeyLinearizability(t *testing.T) {
	const histories = 150
	const threads = 4
	const opsPerThread = 3
	key := ik(42)

	for h := 0; h < histories; h++ {
		m := New(&Options{ChunkCapacity: 16, Pool: testPool(t)})
		// Neighbour churn so the target key's chunk splits/merges. The
		// target key itself starts absent (the checker's initial state).
		for i := 0; i < 64; i++ {
			if i == 42 {
				continue
			}
			m.Put(ik(i), iv(i))
		}
		var clock atomic.Uint64
		recs := make([][]lincheck.Op, threads)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(h*threads+g), 77))
				for i := 0; i < opsPerThread; i++ {
					kind := lincheck.Kind(rng.Uint64() % 5) // put..upsert
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
			t.Fatalf("history %d is not linearizable", h)
		}
		m.Close()
	}
}

// TestMultiKeyLinearizability exercises the multi-key checker: many
// small concurrent histories over a handful of keys, with every modeled
// operation kind including ComputeIfPresent, on a map with tiny chunks
// so the keys' chunks split and merge under neighbour churn.
func TestMultiKeyLinearizability(t *testing.T) {
	const histories = 120
	const threads = 4
	const opsPerThread = 4
	keys := [][]byte{ik(10), ik(42), ik(55)}

	for h := 0; h < histories; h++ {
		m := New(&Options{ChunkCapacity: 16, Pool: testPool(t)})
		// Neighbour churn so the watched keys' chunks rebalance; watched
		// keys start absent (the checker's initial state).
		for i := 0; i < 64; i++ {
			if i == 10 || i == 42 || i == 55 {
				continue
			}
			m.Put(ik(i), iv(i))
		}
		var clock atomic.Uint64
		recs := make([][]lincheck.Op, threads)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(h*threads+g), 99))
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
			t.Fatalf("multi-key history %d is not linearizable", h)
		}
		m.Close()
	}
}

// TestSingleKeyLinearizabilityWithReclaim repeats the check under
// remove/re-insert churn on one key, while the epoch domain reclaims each
// removed value's span: every incarnation gets a fresh handle, and a
// stale one must read as deleted, never as another incarnation.
func TestSingleKeyLinearizabilityWithReclaim(t *testing.T) {
	const histories = 100
	const threads = 4
	key := ik(7)
	for h := 0; h < histories; h++ {
		m := New(&Options{ChunkCapacity: 16, Pool: testPool(t)})
		var clock atomic.Uint64
		var mu sync.Mutex
		var all []lincheck.Op
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(h*31+g), 13))
				for i := 0; i < 3; i++ {
					// Bias toward remove/insert churn to force entry reuse.
					var kind lincheck.Kind
					switch rng.Uint64() % 5 {
					case 0, 1:
						kind = lincheck.PutIfAbsent
					case 2, 3:
						kind = lincheck.Remove
					default:
						kind = lincheck.Get
					}
					arg := fmt.Sprintf("g%d-%d", g, i)
					r := runRecordedOp(t, m, &clock, kind, key, arg)
					mu.Lock()
					all = append(all, r)
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if !lincheck.Linearizable(all) {
			for _, o := range all {
				t.Logf("  %v", o)
			}
			t.Fatalf("reclaim history %d is not linearizable", h)
		}
		m.Close()
	}
}
