package core

import (
	"sync"
	"testing"

	"oakmap/internal/epoch"
	"oakmap/internal/telemetry"
)

// pinNested runs f under n nested pins of d.
func pinNested(d *epoch.Domain, n int, f func()) {
	if n == 0 {
		f()
		return
	}
	g := d.Pin()
	defer g.Unpin()
	pinNested(d, n-1, f)
}

// TestSampledCountsTrackOps checks the estimate contract of the hot-op
// counts. Each op class draws its samples from its own sequence in the
// epoch slot the op pinned, so every class gets samples however strictly
// the ops alternate, and the exported count (samples << SampleShift)
// tracks the true count. A fresh domain starts every sequence at 0, so
// each sequence a class draws from — one per slot it pinned, plus the
// shared overflow sequence — leaves the count short by less than
// 2^shift: the count is at most the true count, and short of it by less
// than 2^shift × (slots used), with at most 128 slots plus the overflow
// sequence.
func TestSampledCountsTrackOps(t *testing.T) {
	const (
		shift     = 4
		rounds    = 1 << 13
		scanKeys  = 64
		maxSlots  = 128 + 1
		heldPins  = 128 + 8 // more than the domain's slots
		scanFirst = 1 << 30
	)
	for _, tc := range []struct {
		name     string
		workers  int
		overflow bool // run every op under heldPins nested pins
	}{
		{"one-goroutine", 1, false},
		{"four-goroutines", 4, false},
		{"overflow", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := telemetry.New(telemetry.Config{SampleShift: shift})
			m := New(&Options{ChunkCapacity: 64, Pool: testPool(t), Telemetry: rec})
			t.Cleanup(m.Close)
			for j := 0; j < scanKeys; j++ {
				mustPut(t, m, ik(scanFirst+j), iv(j))
			}
			work := func(w int) {
				// Strictly alternating rounds: a sequence shared by the
				// four classes would sample the same one every time.
				for i := 0; i < rounds; i++ {
					k := ik(w*rounds + i)
					m.Get(k)
					if err := m.Put(k, iv(i)); err != nil {
						t.Error(err)
						return
					}
					if _, err := m.Remove(k); err != nil {
						t.Error(err)
						return
					}
					if _, err := m.ComputeIfPresent(k, func(*WBuffer) error { return nil }); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < rounds/scanKeys; i++ {
					cur := m.NewCursor(ik(scanFirst), nil, false)
					for j := 0; j < scanKeys; j++ {
						if _, _, ok := cur.Next(); !ok {
							t.Errorf("scan ended after %d of %d keys", j, scanKeys)
							return
						}
					}
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if tc.overflow {
						pinNested(m.reclaim, heldPins, func() { work(w) })
					} else {
						work(w)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			slots := uint64(maxSlots)
			if tc.overflow {
				slots = 2 // the overflow sequence, and the set-up puts' slot
			}
			for op := telemetry.Op(0); op < telemetry.NumHotOps; op++ {
				want := uint64(tc.workers * rounds)
				if op == telemetry.OpPut {
					want += scanKeys
				}
				s := rec.OpSnapshot(op)
				t.Logf("%s: count %d (%d samples), true count %d", op, s.Count, s.Hist.Count, want)
				if s.Hist.Count == 0 {
					t.Errorf("%s: no samples in %d ops", op, want)
					continue
				}
				if s.Count > want || want-s.Count >= slots<<shift {
					t.Errorf("%s: count %d (%d samples), true count %d: off by more than 2^%d × %d sequences",
						op, s.Count, s.Hist.Count, want, shift, slots)
				}
			}
			if tc.overflow {
				if n := m.ReclaimStats().SlotOverflows; n == 0 {
					t.Fatal("no pin overflowed the slot array")
				}
			}
		})
	}
}
