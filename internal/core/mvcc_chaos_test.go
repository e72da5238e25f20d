package core

// Chaos scenarios for the MVCC layer: snapshots killed mid-scan while
// the retain and horizon fault points stretch the windows the
// implementation's arguments are about — a pre-image entering the
// retained store just as its snapshot dies, and a horizon sweep racing
// writers that still retain against the old floor.

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"oakmap/internal/faultpoint"
)

// TestChaosSnapshotKilledMidScan abandons snapshot scans partway —
// EndSnapshot fires while the cursor still has entries to yield — under
// delete-heavy churn, with mvcc/retain and mvcc/horizon armed to pause
// inside the retention and sweep windows. Survivor invariants: the
// partial scans stay strictly ordered, nothing panics, and once every
// snapshot is closed the retained store drains to exactly zero.
func TestChaosSnapshotKilledMidScan(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)

	const keySpace = 512
	for i := 0; i < keySpace; i++ {
		mustPut(t, m, ik(i), iv(i))
	}

	// Pause inside the two windows, probabilistically: retain is hit on
	// the writer side (superseded span entering the retained store),
	// horizon on the closer side (sweep while writers race the floor).
	FpMvccRetain.Arm(faultpoint.Delayed(100*time.Microsecond, faultpoint.WithProb(0.2, 0xA11CE)))
	FpMvccHorizon.Arm(faultpoint.Delayed(200*time.Microsecond, faultpoint.WithProb(0.5, 0xB0B)))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xDEAD))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int(rng.Uint64N(keySpace))
				if rng.Uint64N(100) < 40 {
					m.Remove(ik(k))
				} else {
					m.Put(ik(k), iv(i))
				}
			}
		}(uint64(w + 1))
	}

	rng := rand.New(rand.NewPCG(7, 0xFEED))
	for round := 0; round < 40; round++ {
		s := m.BeginSnapshot()
		hits := FpMvccRetain.Hits()
		m.StabilizeSnapshot(s)
		cur := m.NewFrozenCursor(s, nil, nil, false)
		steps := int(rng.Uint64N(keySpace/2)) + 1
		var prev []byte
		for i := 0; i < steps; i++ {
			if _, _, ok := cur.Next(); !ok {
				break
			}
			key := cur.Key()
			if prev != nil && bytes.Compare(prev, key) >= 0 {
				t.Fatalf("round %d: killed scan went out of order: %x after %x", round, key, prev)
			}
			prev = append(prev[:0], key...)
		}
		// Keep the snapshot open until some writer has reached the retain
		// window under it: on one or two CPUs the scan alone can finish
		// before the writers are scheduled at all.
		for FpMvccRetain.Hits() == hits {
			runtime.Gosched()
		}
		// The kill: the snapshot dies with the cursor mid-flight.
		m.EndSnapshot(s)
	}
	close(stop)
	wg.Wait()

	if FpMvccRetain.Fires() == 0 || FpMvccHorizon.Fires() == 0 {
		t.Fatalf("chaos not exercised: retain fired %d, horizon fired %d",
			FpMvccRetain.Fires(), FpMvccHorizon.Fires())
	}
	st := m.MVCCStats()
	if st.OpenSnapshots != 0 || st.RetainedBytes != 0 || st.RetainedSpans != 0 || st.HorizonLag != 0 {
		t.Fatalf("retained store did not drain after the last close: %+v", st)
	}
	t.Logf("killed 40 scans: retain fired %d, horizon fired %d",
		FpMvccRetain.Fires(), FpMvccHorizon.Fires())
}
