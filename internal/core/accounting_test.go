package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"oakmap/internal/arena"
	"oakmap/internal/faultpoint"
)

// TestOffHeapAccountedAtQuiesce checks that every off-heap byte is owned
// by the map's structure once reclamation quiesces: the arena's live
// bytes equal the keys of the linked entries plus the spans of their
// live values, exactly. A rebalance that drops a dead key without
// retiring it, or a resize, batch or remove that loses a value span,
// leaves bytes no entry accounts for.
func TestOffHeapAccountedAtQuiesce(t *testing.T) {
	m := newTestMap(t, 32)
	churnEveryWriteForm(t, m, false)
	if t.Failed() {
		return
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo did not drain with no reader pinned")
	}
	round := func(n int) int64 { return int64(n+7) &^ 7 }
	var accounted int64
	entries := 0
	for c := m.head.Load(); c != nil; c = c.Next() {
		for ei := c.Head(); ei >= 0; ei = c.NextEntry(ei) {
			entries++
			accounted += round(arena.Ref(c.KeyRef(ei)).Len())
			if h := ValueHandle(c.ValHandle(ei)); h != 0 && !m.IsDeleted(h) {
				accounted += round(arena.Ref(m.headers.LoadData(uint64(h))).Len())
			}
		}
	}
	t.Logf("%d rebalances, %d linked entries, %d live keys, %d B accounted",
		m.Rebalances(), entries, m.Len(), accounted)
	if m.Rebalances() == 0 {
		t.Fatal("no rebalance ran: dead keys were never collected")
	}
	if got := m.LiveBytes(); got != accounted {
		t.Fatalf("LiveBytes = %d after quiesce; entries account for %d (%+d B unowned)", got, accounted, got-accounted)
	}
}

// TestHeadersAccountedAtQuiesce checks that every value header in use is
// owned by a chunk entry once reclamation quiesces: the table's in-use
// count equals the non-⊥ handles linked in the chunk list, and no two
// linked handles share a slot. The churn reaches every point where a
// header's last entry reference goes: a remove's unlink, a put reusing an
// entry whose value is deleted, a rebalance dropping a deleted value, and
// the discard of a value that lost its install race. Snapshots opened
// mid-churn keep removed keys linked (keepDeleted), which is what leaves
// deleted values for the later puts and rebalances. A site that does not
// retire leaves slots no entry accounts for; one that retires early links
// a stale handle, or hands its slot to a second entry.
func TestHeadersAccountedAtQuiesce(t *testing.T) {
	disarmOnExit(t)
	FpInstallCASLost.Arm(faultpoint.Every(16)) // every 16th install is discarded
	m := newTestMap(t, 32)
	churnEveryWriteForm(t, m, true)
	FpInstallCASLost.Disarm()
	if t.Failed() {
		return
	}
	if !m.QuiesceReclaim() {
		t.Fatal("limbo did not drain with no reader pinned")
	}
	slots := make(map[uint64]bool)
	deleted := 0
	for c := m.head.Load(); c != nil; c = c.Next() {
		for ei := c.Head(); ei >= 0; ei = c.NextEntry(ei) {
			h := ValueHandle(c.ValHandle(ei))
			if h == 0 {
				continue
			}
			if slots[headerSlot(h)] {
				t.Fatalf("two linked handles share header slot %d", headerSlot(h))
			}
			slots[headerSlot(h)] = true
			if m.IsDeleted(h) {
				deleted++
			}
		}
	}
	t.Logf("%d rebalances, %d discarded installs, %d linked handles (%d deleted), %d live keys",
		m.Rebalances(), FpInstallCASLost.Fires(), len(slots), deleted, m.Len())
	if FpInstallCASLost.Fires() == 0 {
		t.Fatal("no install lost its race")
	}
	if got := m.HeaderCount(); got != uint64(len(slots)) {
		t.Fatalf("HeaderCount = %d after quiesce; entries link %d (%+d unowned)", got, len(slots), int64(got)-int64(len(slots)))
	}
}

// churnEveryWriteForm runs 4 workers × 40,000 random ops of every write
// form on m (put, putIfAbsent, remove, a resizing compute, a two-key
// batch) plus gets. Keys are 1–3 bytes over a 16-letter alphabet (4,368
// keys), so the workers collide and 32-entry chunks split and merge all
// the time. With snapshots set, each worker also holds a snapshot open
// over stretches of its ops.
func churnEveryWriteForm(t *testing.T, m *Map, snapshots bool) {
	const (
		workers = 4
		ops     = 40_000
	)
	key := func(rng *rand.Rand) []byte {
		k := make([]byte, 1+rng.IntN(3))
		for i := range k {
			k[i] = byte(rng.IntN(16))
		}
		return k
	}
	val := func(rng *rand.Rand) []byte { return make([]byte, rng.IntN(301)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xacc7))
			var snap uint64 // the worker's open snapshot; 0 = none
			defer func() {
				if snap != 0 {
					m.EndSnapshot(snap)
				}
			}()
			for i := 0; i < ops; i++ {
				if snapshots && rng.IntN(64) == 0 {
					if snap == 0 {
						snap = m.BeginSnapshot()
						m.StabilizeSnapshot(snap)
					} else {
						m.EndSnapshot(snap)
						snap = 0
					}
				}
				k := key(rng)
				var err error
				switch rng.IntN(6) {
				case 0:
					err = m.Put(k, val(rng))
				case 1:
					_, err = m.PutIfAbsent(k, val(rng))
				case 2:
					_, err = m.Remove(k)
				case 3:
					n := rng.IntN(301)
					err = m.PutIfAbsentComputeIfPresent(k, val(rng), func(b *WBuffer) error { return b.Resize(n) })
				case 4:
					err = m.ApplyBatch([]BatchOp{{Key: k, Val: val(rng)}, {Key: key(rng), Delete: rng.IntN(2) == 0, Val: val(rng)}})
				case 5:
					if h, ok := m.Get(k); ok {
						_, _ = m.CopyValue(h, nil) // a concurrent remove may win
					}
				}
				if err != nil {
					t.Errorf("op on %x: %v", k, err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}
