package sharded

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"oakmap/internal/core"
)

// writers is a group of background writer goroutines. Its cleanup is
// registered when the group is made — after the map's, so it runs first:
// a test that fails while writers run stops and waits for them before
// the map closes, and the failure message is not buried under a panic
// from a writer using a closed map.
type writers struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func newWriters(t *testing.T) *writers {
	w := &writers{stop: make(chan struct{})}
	t.Cleanup(w.halt)
	return w
}

// halt stops the writers and waits for them; it may be called early.
func (w *writers) halt() {
	w.once.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// run calls step(0), step(1), … on a new goroutine until halt, or until
// a step fails; a failure other than the map having closed is reported.
func (w *writers) run(t *testing.T, step func(i int) error) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for i := 0; ; i++ {
			select {
			case <-w.stop:
				return
			default:
			}
			if err := step(i); err != nil {
				if !errors.Is(err, core.ErrClosed) {
					t.Errorf("background writer: %v", err)
				}
				return
			}
		}
	}()
}

func TestSnapshotMergedFrozenViewUnderChurn(t *testing.T) {
	m := newTestSharded(t, 4, 64)
	const n = 300
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, v := ik(i), iv(i)
		if err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[string(k)] = string(v)
	}
	sn := m.Snapshot()
	defer sn.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 3))
			for gen := 0; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.IntN(n + 40)
				if rng.IntN(3) == 0 {
					_, _ = m.Remove(ik(i))
				} else {
					_ = m.Put(ik(i), []byte(fmt.Sprintf("churn-%d-%d", seed, gen)))
				}
			}
		}(uint64(w + 1))
	}

	for round := 0; round < 4; round++ {
		desc := round%2 == 1
		got := make(map[string]string, n)
		var prev []byte
		cur := sn.NewCursor(nil, nil, desc)
		for _, k, _, _, ok := cur.Next(); ok; _, k, _, _, ok = cur.Next() {
			v := cur.Val()
			if prev != nil {
				d := bytes.Compare(prev, k)
				if desc {
					d = -d
				}
				if d >= 0 {
					t.Fatalf("round %d: merged snapshot keys out of order", round)
				}
			}
			prev = append(prev[:0], k...)
			got[string(k)] = string(v)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: snapshot scan saw %d keys, want %d", round, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("round %d: key %x = %q, want %q", round, k, got[k], v)
			}
		}
		// Point reads agree with the frozen view.
		for i := 0; i < n; i += 29 {
			v, ok := sn.Get(ik(i), nil)
			if !ok || string(v) != want[string(ik(i))] {
				t.Fatalf("round %d: snap Get(%d) = %q, %v", round, i, v, ok)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedBatchAtomicAcrossShards: a snapshot never sees a
// cross-shard batch half-applied, even though the batch's keys land on
// different shards.
func TestShardedBatchAtomicAcrossShards(t *testing.T) {
	m := newTestSharded(t, 4, 64)
	const nk = 12 // spread across all 4 shards
	keys := make([][]byte, nk)
	var ops []core.BatchOp
	for i := range keys {
		keys[i] = ik(i)
		ops = append(ops, core.BatchOp{Key: keys[i], Val: []byte("gen-0")})
	}
	if err := m.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}

	bg := newWriters(t)
	bg.run(t, func(gen int) error {
		ops := make([]core.BatchOp, nk)
		for i, k := range keys {
			ops[i] = core.BatchOp{Key: k, Val: []byte(fmt.Sprintf("gen-%d", gen+1))}
		}
		return m.ApplyBatch(ops)
	})
	for round := 0; round < 150; round++ {
		sn := m.Snapshot()
		var vals []string
		for _, k := range keys {
			v, ok := sn.Get(k, nil)
			if !ok {
				t.Fatalf("round %d: key missing in snapshot", round)
			}
			vals = append(vals, string(v))
		}
		// The merged scan must agree too.
		cur := sn.NewCursor(nil, nil, false)
		count := 0
		for _, _, _, _, ok := cur.Next(); ok; _, _, _, _, ok = cur.Next() {
			v := cur.Val()
			if string(v) != vals[0] {
				t.Fatalf("round %d: scan saw %q, point reads saw %q", round, v, vals[0])
			}
			count++
		}
		sn.Close()
		if count != nk {
			t.Fatalf("round %d: scan saw %d keys, want %d", round, count, nk)
		}
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Fatalf("round %d: torn cross-shard batch: %v", round, vals)
			}
		}
	}
	bg.halt()

	for i, s := range m.Shards() {
		if st := s.MVCCStats(); st.RetainedBytes != 0 || st.OpenSnapshots != 0 {
			t.Fatalf("shard %d: retained state after snapshots closed: %+v", i, st)
		}
	}
}

// TestShardedBatchConcurrent hammers concurrent cross-shard batches for
// deadlock freedom and flag cleanup.
func TestShardedBatchConcurrent(t *testing.T) {
	m := newTestSharded(t, 3, 64)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+1, 17))
			for i := 0; i < 80; i++ {
				var ops []core.BatchOp
				for j := 0; j < 1+rng.IntN(6); j++ {
					k := ik(rng.IntN(24))
					if rng.IntN(4) == 0 {
						ops = append(ops, core.BatchOp{Key: k, Delete: true})
					} else {
						ops = append(ops, core.BatchOp{Key: k, Val: []byte(fmt.Sprintf("w%d-%d", w, i))})
					}
				}
				if err := m.ApplyBatch(ops); err != nil {
					t.Errorf("ApplyBatch: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 24; i++ {
		if h, ok := m.Get(ik(i)); ok {
			s := m.ShardFor(ik(i))
			if _, err := s.CopyValue(h, nil); err != nil {
				t.Fatalf("key %d unreadable after batches: %v", i, err)
			}
		}
	}
	for i, s := range m.Shards() {
		if st := s.MVCCStats(); st.RetainedBytes != 0 {
			t.Fatalf("shard %d: retained bytes with no snapshots: %+v", i, st)
		}
	}
}
