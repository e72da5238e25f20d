package oakmap

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"oakmap/internal/lincheck"
)

// TestLegacyOpsLinearizable records concurrent histories of the legacy
// operations that return old values — Put, Remove, PutIfAbsent and
// PollFirst — on one to four keys and checks them against the register
// model. Every written value is unique, so a previous value returned
// twice, or a remove that reports success with the wrong value, has no
// sequential witness. A poll is recorded as a removal of the key it
// returned; an empty poll observes no key and is not recorded. Each
// history runs on keys of its own and leaves the map empty, so one map
// serves every history of a shard count.
func TestLegacyOpsLinearizable(t *testing.T) {
	const histories = 300
	const threads = 4
	const opsPerThread = 4
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
				&Options{ChunkCapacity: 16, BlockSize: 1 << 20, Shards: shards})
			defer m.Close()
			for h := 0; h < histories; h++ {
				base, nKeys := uint64(h*4), 1+h%4
				var clock atomic.Uint64
				recs := make([][]lincheck.Op, threads)
				var start, wg sync.WaitGroup
				start.Add(1)
				for g := 0; g < threads; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewPCG(uint64(h*threads+g), 77))
						start.Wait()
						for i := 0; i < opsPerThread; i++ {
							k := base + rng.Uint64N(uint64(nKeys))
							arg := fmt.Sprintf("g%d-%d", g, i)
							if r, ok := runLegacyOp(t, m, &clock, rng.IntN(4), k, arg); ok {
								recs[g] = append(recs[g], r)
							}
						}
					}(g)
				}
				start.Done()
				wg.Wait()
				for k := base; k < base+uint64(nKeys); k++ {
					if err := m.ZC().Remove(k); err != nil {
						t.Fatal(err)
					}
				}
				var all []lincheck.Op
				for _, rs := range recs {
					all = append(all, rs...)
				}
				if !lincheck.Linearizable(all) {
					for _, o := range all {
						t.Logf("  %v", o)
					}
					t.Fatalf("history %d (%d keys) is not linearizable", h, nKeys)
				}
			}
		})
	}
}

// runLegacyOp runs legacy op number op (Put, Remove, PutIfAbsent,
// PollFirst) on key k, bracketed by the logical clock, and reports the
// recorded op; ok is false for an empty poll, which records nothing.
func runLegacyOp(t *testing.T, m *Map[uint64, string], clock *atomic.Uint64, op int, k uint64, arg string) (r lincheck.Op, ok bool) {
	r.Key, r.Arg = fmt.Sprint(k), arg
	r.Inv = clock.Add(1)
	var err error
	switch op {
	case 0:
		r.Kind = lincheck.PutPrev
		r.RetVal, r.RetBool, err = m.Put(k, arg)
	case 1:
		r.Kind = lincheck.RemovePrev
		r.RetVal, r.RetBool, err = m.Remove(k)
	case 2:
		// The model checks the inserted flag; the existing value a
		// failed insert returns is a read, not modelled here.
		r.Kind = lincheck.PutIfAbsent
		_, r.RetBool, err = m.PutIfAbsent(k, arg)
	case 3:
		var pk uint64
		var polled bool
		pk, r.RetVal, polled, err = m.PollFirst()
		if !polled && err == nil {
			return r, false
		}
		r.Key, r.Arg, r.Kind, r.RetBool = fmt.Sprint(pk), "", lincheck.RemovePrev, true
	}
	r.Ret = clock.Add(1)
	if err != nil {
		t.Errorf("%v: %v", r, err)
	}
	return r, true
}
