package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oakmap/internal/faultpoint"
	"oakmap/internal/vheader"
)

// takeSnap begins and stabilizes a snapshot, registering cleanup-free
// manual end via the returned func.
func takeSnap(m *Map) (uint64, func()) {
	s := m.BeginSnapshot()
	m.StabilizeSnapshot(s)
	return s, func() { m.EndSnapshot(s) }
}

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
				if !errors.Is(err, ErrClosed) {
					t.Errorf("background writer: %v", err)
				}
				return
			}
		}
	}()
}

func snapGetString(t *testing.T, m *Map, s uint64, k []byte) (string, bool) {
	t.Helper()
	v, ok := m.SnapGet(s, k, nil)
	return string(v), ok
}

func TestSnapshotBasicResolution(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("v1"))
	mustPut(t, m, ik(2), []byte("v2"))

	s, end := takeSnap(m)
	defer end()

	// Overwrite, delete, insert after the snapshot.
	mustPut(t, m, ik(1), []byte("v1-new"))
	if ok, _ := m.Remove(ik(2)); !ok {
		t.Fatal("Remove(2) failed")
	}
	mustPut(t, m, ik(3), []byte("v3"))

	if v, ok := snapGetString(t, m, s, ik(1)); !ok || v != "v1" {
		t.Fatalf("snap Get(1) = %q, %v; want v1", v, ok)
	}
	if v, ok := snapGetString(t, m, s, ik(2)); !ok || v != "v2" {
		t.Fatalf("snap Get(2) = %q, %v; want v2", v, ok)
	}
	if _, ok := snapGetString(t, m, s, ik(3)); ok {
		t.Fatal("snap Get(3) visible: inserted after snapshot")
	}
	// Live reads see the new state.
	if v, ok := getString(t, m, ik(1)); !ok || v != "v1-new" {
		t.Fatalf("live Get(1) = %q, %v", v, ok)
	}
	if _, ok := m.Get(ik(2)); ok {
		t.Fatal("live Get(2) should be deleted")
	}
}

func TestSnapshotChainMultipleVersions(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(7), []byte("gen0"))
	s0, end0 := takeSnap(m)
	mustPut(t, m, ik(7), []byte("gen1"))
	s1, end1 := takeSnap(m)
	mustPut(t, m, ik(7), []byte("gen2"))
	s2, end2 := takeSnap(m)
	if ok, _ := m.Remove(ik(7)); !ok {
		t.Fatal("Remove failed")
	}
	s3, end3 := takeSnap(m)

	for _, tc := range []struct {
		s    uint64
		want string
		ok   bool
	}{{s0, "gen0", true}, {s1, "gen1", true}, {s2, "gen2", true}, {s3, "", false}} {
		v, ok := snapGetString(t, m, tc.s, ik(7))
		if ok != tc.ok || v != tc.want {
			t.Fatalf("snap %d Get = %q, %v; want %q, %v", tc.s, v, ok, tc.want, tc.ok)
		}
	}
	end1()
	// s0 and s2 still resolve after a middle snapshot closes.
	if v, ok := snapGetString(t, m, s0, ik(7)); !ok || v != "gen0" {
		t.Fatalf("after end1: snap s0 = %q, %v", v, ok)
	}
	if v, ok := snapGetString(t, m, s2, ik(7)); !ok || v != "gen2" {
		t.Fatalf("after end1: snap s2 = %q, %v", v, ok)
	}
	end0()
	end2()
	end3()
	st := m.MVCCStats()
	if st.RetainedBytes != 0 || st.RetainedSpans != 0 || st.OpenSnapshots != 0 {
		t.Fatalf("retained state after all snapshots closed: %+v", st)
	}
}

func TestSnapshotRetainedBytesDropToZero(t *testing.T) {
	m := newTestMap(t, 64)
	for i := 0; i < 200; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	s, end := takeSnap(m)
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			if _, err := m.Remove(ik(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			mustPut(t, m, ik(i), []byte(fmt.Sprintf("other-%d", i)))
		}
	}
	if st := m.MVCCStats(); st.RetainedBytes == 0 {
		t.Fatal("expected retained bytes while snapshot open")
	}
	// The frozen view still reads the originals.
	for i := 0; i < 200; i += 17 {
		if v, ok := snapGetString(t, m, s, ik(i)); !ok || v != string(iv(i)) {
			t.Fatalf("snap Get(%d) = %q, %v", i, v, ok)
		}
	}
	end()
	st := m.MVCCStats()
	if st.RetainedBytes != 0 || st.RetainedSpans != 0 {
		t.Fatalf("retained bytes/spans nonzero after close: %+v", st)
	}
}

// TestSnapshotFrozenViewUnderChurn is the acceptance-criteria test: a
// scan over an open snapshot observes exactly the frozen state while
// writers churn every key.
func TestSnapshotFrozenViewUnderChurn(t *testing.T) {
	m := newTestMap(t, 64)
	const n = 400
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(i), iv(i))
		want[string(ik(i))] = string(iv(i))
	}
	s, end := takeSnap(m)
	defer end()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for gen := 0; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.IntN(n + 50)
				switch rng.IntN(3) {
				case 0:
					_ = m.Put(ik(i), []byte(fmt.Sprintf("churn-%d-%d", seed, gen)))
				case 1:
					_, _ = m.Remove(ik(i))
				case 2:
					_, _ = m.ComputeIfPresent(ik(i), func(w *WBuffer) error {
						return w.Set([]byte(fmt.Sprintf("compute-%d-%d", seed, gen)))
					})
				}
			}
		}(uint64(w + 1))
	}

	// Repeated full scans + point reads of the frozen view mid-churn.
	for round := 0; round < 5; round++ {
		got := make(map[string]string, n)
		sc := m.NewFrozenCursor(s, nil, nil, round%2 == 1)
		prev := []byte(nil)
		for _, _, ok := sc.Next(); ok; _, _, ok = sc.Next() {
			k, v := sc.Key(), sc.Val()
			if prev != nil {
				d := bytes.Compare(prev, k)
				if round%2 == 1 {
					d = -d
				}
				if d >= 0 {
					t.Fatalf("round %d: keys out of order", round)
				}
			}
			prev = append(prev[:0], k...)
			if _, dup := got[string(k)]; dup {
				t.Fatalf("round %d: duplicate key in snapshot scan", round)
			}
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
		for i := 0; i < n; i += 37 {
			if v, ok := snapGetString(t, m, s, ik(i)); !ok || v != want[string(ik(i))] {
				t.Fatalf("round %d: snap Get(%d) = %q, %v", round, i, v, ok)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestApplyBatchBasic(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("old1"))
	mustPut(t, m, ik(2), []byte("old2"))
	err := m.ApplyBatch([]BatchOp{
		{Key: ik(1), Val: []byte("new1")},
		{Key: ik(2), Delete: true},
		{Key: ik(3), Val: []byte("new3")},
		{Key: ik(4), Delete: true},         // absent delete: no-op
		{Key: ik(3), Val: []byte("new3b")}, // dup: last wins
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := getString(t, m, ik(1)); !ok || v != "new1" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := m.Get(ik(2)); ok {
		t.Fatal("Get(2) should be deleted")
	}
	if v, ok := getString(t, m, ik(3)); !ok || v != "new3b" {
		t.Fatalf("Get(3) = %q, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

// TestApplyBatchAtomicVisibility hammers readers against batches that
// flip two keys between two consistent states; observing a mixed state
// is a failure.
func TestApplyBatchAtomicVisibility(t *testing.T) {
	m := newTestMap(t, 64)
	kA, kB := ik(100), ik(200)
	mustPut(t, m, kA, []byte("state0"))
	mustPut(t, m, kB, []byte("state0"))

	stop := make(chan struct{})
	var fail atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, okA := func() (string, bool) {
					h, ok := m.Get(kA)
					if !ok {
						return "", false
					}
					b, err := m.CopyValue(h, nil)
					if err != nil {
						return "", false
					}
					return string(b), true
				}()
				b, okB := func() (string, bool) {
					h, ok := m.Get(kB)
					if !ok {
						return "", false
					}
					bb, err := m.CopyValue(h, nil)
					if err != nil {
						return "", false
					}
					return string(bb), true
				}()
				// Reads are not a single atomic pair, so a batch may land
				// between them — but each individual read must return one
				// of the two committed states, never a torn value.
				if okA && a != "state0" && a != "state1" {
					fail.Store(fmt.Sprintf("key A read %q", a))
					return
				}
				if okB && b != "state0" && b != "state1" {
					fail.Store(fmt.Sprintf("key B read %q", b))
					return
				}
				if !okA || !okB {
					fail.Store("key missing during pure-put batches")
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		st := fmt.Sprintf("state%d", i%2)
		if err := m.ApplyBatch([]BatchOp{
			{Key: kA, Val: []byte(st)},
			{Key: kB, Val: []byte(st)},
		}); err != nil {
			t.Fatal(err)
		}
		if fail.Load() != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if f := fail.Load(); f != nil {
		t.Fatal(f)
	}
}

// TestApplyBatchSnapshotCut: a snapshot sees all of a batch or none.
func TestApplyBatchSnapshotCut(t *testing.T) {
	m := newTestMap(t, 64)
	keys := [][]byte{ik(1), ik(2), ik(3)}
	for _, k := range keys {
		mustPut(t, m, k, []byte("before"))
	}
	bg := newWriters(t)
	bg.run(t, func(i int) error {
		ops := make([]BatchOp, len(keys))
		for j, k := range keys {
			ops[j] = BatchOp{Key: k, Val: []byte(fmt.Sprintf("batch-%d", i))}
		}
		return m.ApplyBatch(ops)
	})
	for round := 0; round < 200; round++ {
		s, end := takeSnap(m)
		var vals []string
		for _, k := range keys {
			v, ok := snapGetString(t, m, s, k)
			if !ok {
				t.Fatalf("round %d: key missing in snapshot", round)
			}
			vals = append(vals, v)
		}
		end()
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Fatalf("round %d: snapshot saw torn batch: %v", round, vals)
			}
		}
	}
	bg.halt()
}

// TestBatchConcurrentBatches: concurrent multi-key batches over an
// overlapping key set must not deadlock and must leave one batch's
// state per key set.
func TestBatchConcurrentBatches(t *testing.T) {
	m := newTestMap(t, 64)
	const nk = 16
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for i := 0; i < 100; i++ {
				var ops []BatchOp
				for j := 0; j < 1+rng.IntN(5); j++ {
					k := ik(rng.IntN(nk))
					if rng.IntN(4) == 0 {
						ops = append(ops, BatchOp{Key: k, Delete: true})
					} else {
						ops = append(ops, BatchOp{Key: k, Val: []byte(fmt.Sprintf("w%d-i%d", w, i))})
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
	// All flags must be cleared: every surviving key reads normally.
	for i := 0; i < nk; i++ {
		if h, ok := m.Get(ik(i)); ok {
			if _, err := m.CopyValue(h, nil); err != nil {
				t.Fatalf("key %d unreadable after batches: %v", i, err)
			}
		}
	}
	if st := m.MVCCStats(); st.RetainedBytes != 0 {
		t.Fatalf("retained bytes with no snapshots: %+v", st)
	}
}

// TestBatchWriterWaits: a normal writer racing a batch must not tear it.
func TestBatchWriterWaits(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("init"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if w%2 == 0 {
					_ = m.Put(ik(1), []byte(fmt.Sprintf("plain-%d-%d", w, i)))
				} else {
					_ = m.ApplyBatch([]BatchOp{{Key: ik(1), Val: []byte(fmt.Sprintf("batch-%d-%d", w, i))}})
				}
			}
		}(w)
	}
	wg.Wait()
	v, ok := getString(t, m, ik(1))
	if !ok {
		t.Fatal("key vanished")
	}
	if v == "init" {
		t.Fatalf("no write landed: %q", v)
	}
}

func TestSnapshotOverheadStatsAndHorizon(t *testing.T) {
	m := newTestMap(t, 64)
	mustPut(t, m, ik(1), []byte("x"))
	if st := m.MVCCStats(); st.OpenSnapshots != 0 || st.HorizonLag != 0 {
		t.Fatalf("clean stats: %+v", st)
	}
	s, end := takeSnap(m)
	// The clock ratchets on snapshots and batches (not on plain writes),
	// so a batch moves the horizon past the open snapshot.
	if err := m.ApplyBatch([]BatchOp{{Key: ik(1), Val: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	st := m.MVCCStats()
	if st.OpenSnapshots != 1 {
		t.Fatalf("OpenSnapshots = %d", st.OpenSnapshots)
	}
	if st.HorizonLag == 0 {
		t.Fatal("HorizonLag should be positive: clock moved past the snapshot")
	}
	_ = s
	end()
	if st := m.MVCCStats(); st.OpenSnapshots != 0 || st.HorizonLag != 0 {
		t.Fatalf("stats after close: %+v", st)
	}
}

// TestSnapshotBeginVsOverwriteRace hammers the window the
// floor-before-ratchet ordering in BeginSnapshot closes: a writer that
// loads a post-ratchet clock value must also observe the raised
// retention floor and keep the pre-image the just-begun snapshot
// needs. Same-size values keep the overwrite on the in-place path (the
// destructive one when retention is wrongly skipped); the bug's
// symptom is the key vanishing from a snapshot it was present in.
func TestSnapshotBeginVsOverwriteRace(t *testing.T) {
	m := newTestMap(t, 64)
	key := ik(1)
	val := func(w, gen int) []byte { return []byte(fmt.Sprintf("w%d-gen-%08d", w, gen)) }
	mustPut(t, m, key, val(0, 0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := 1; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Put(key, val(w, gen)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for i := 0; i < rounds; i++ {
		s, end := takeSnap(m)
		if v, ok := m.SnapGet(s, key, nil); !ok {
			t.Errorf("round %d: key absent at snapshot %d (pre-image lost)", i, s)
		} else if len(v) != len(val(0, 0)) {
			t.Errorf("round %d: torn value %q at snapshot %d", i, v, s)
		}
		end()
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()

	if st := m.MVCCStats(); st.OpenSnapshots != 0 || st.RetainedBytes != 0 {
		t.Fatalf("retained state after close: %+v", st)
	}
}

// TestSnapshotVsBatchPrepareRace hammers the window PrepareBatch's
// pendMu-covered ratchet closes on the plain backend: a snapshot whose
// version exceeds a batch's base must find that batch in the pending
// registry during stabilization and wait out its decision — otherwise
// the batch commits inside the "frozen" view and snapshots read it
// torn (pre-state for some keys, post-state for others).
func TestSnapshotVsBatchPrepareRace(t *testing.T) {
	m := newTestMap(t, 64)
	const nk = 6
	mkops := func(gen int) []BatchOp {
		ops := make([]BatchOp, nk)
		for i := range ops {
			ops[i] = BatchOp{Key: ik(i), Val: []byte(fmt.Sprintf("gen-%08d", gen))}
		}
		return ops
	}
	if err := m.ApplyBatch(mkops(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.ApplyBatch(mkops(gen)); err != nil {
				t.Errorf("ApplyBatch: %v", err)
				return
			}
		}
	}()

	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for r := 0; r < rounds; r++ {
		s, end := takeSnap(m)
		var ref string
		for i := 0; i < nk; i++ {
			v, ok := m.SnapGet(s, ik(i), nil)
			if !ok {
				t.Errorf("round %d: key %d absent at snapshot %d", r, i, s)
				break
			}
			if ref == "" {
				ref = string(v)
			} else if string(v) != ref {
				t.Errorf("round %d: torn batch at snapshot %d: %q vs %q", r, s, v, ref)
				break
			}
		}
		end()
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotFloorRatchetOrdering pins BeginSnapshot's memory-order
// contract directly: while snapshots are only being opened (the floor
// never drops), an observer that loads the clock and then the floor —
// the same order every writer's retention gate uses — must see
// floor ≥ clock. The pre-fix ordering (ratchet, then floor store)
// violates this in the window a writer could exploit to skip
// copy-on-write retention.
func TestSnapshotFloorRatchetOrdering(t *testing.T) {
	m := newTestMap(t, 64)
	st := &m.mvcc
	first := m.BeginSnapshot() // floor is nonzero from here on

	stop := make(chan struct{})
	var violations atomic.Int64
	var wg sync.WaitGroup
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
				c := st.clock.Load()
				if f := st.retainFloor.Load(); f < c {
					violations.Add(1)
				}
			}
		}()
	}

	const n = 5000
	snaps := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		snaps = append(snaps, m.BeginSnapshot())
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("floor observed below the clock %d times: a writer could skip retention", v)
	}
	for _, s := range snaps {
		m.EndSnapshot(s)
	}
	m.EndSnapshot(first)
	if st := m.MVCCStats(); st.OpenSnapshots != 0 {
		t.Fatalf("OpenSnapshots = %d after close", st.OpenSnapshots)
	}
}

// TestPlainWritesStampInitialVersion pins the other half of the default
// header table's 16-byte headers (vheader.Table stores no version word
// for a segment until something other than vheader.InitialVersion is
// stored into it): until the first snapshot or batch, every write path
// must stamp exactly that value. A clock that started anywhere else
// would still be correct and would silently cost 8 B per header again.
func TestPlainWritesStampInitialVersion(t *testing.T) {
	m := newTestMap(t, 32)
	for i := 0; i < 500; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	for i := 0; i < 500; i += 2 {
		mustPut(t, m, ik(i), iv(i+1)) // overwrite
		if _, err := m.ComputeIfPresent(ik(i+1), func(w *WBuffer) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 5 {
		if _, err := m.Remove(ik(i)); err != nil {
			t.Fatal(err)
		}
		mustPut(t, m, ik(i), iv(i)) // a new header
	}
	n := 0
	m.Ascend(nil, nil, func(_ uint64, h ValueHandle) bool {
		n++
		if v := m.headers.LoadVersion(uint64(h)); v != vheader.InitialVersion {
			t.Fatalf("a plain write stamped version %#x; want vheader.InitialVersion", v)
		}
		return true
	})
	if n != 500 {
		t.Fatalf("scanned %d values", n)
	}
}

// TestSnapshotFreshInsertWindow parks a plain insert of an absent key in
// the two windows of its stamping rule (a fresh value is published
// write-locked and stamped after its entry CAS) and reads a snapshot
// through each, then checks that a presence probe meeting the unstamped
// value orders before any snapshot opened after it. Nothing times the
// snapshot: one that waited for the parked put would hang the test, not
// pass it.
func TestSnapshotFreshInsertWindow(t *testing.T) {
	key := ik(1)
	// putParkedAt starts Put(key) and returns once it is parked at p;
	// open releases it and done is closed when the put has returned.
	putParkedAt := func(t *testing.T, m *Map, p *faultpoint.Point) (open func(), done <-chan struct{}) {
		t.Helper()
		g := faultpoint.NewGate()
		p.Arm(g.Hook(1))
		ch := make(chan struct{})
		go func() {
			defer close(ch)
			if err := m.Put(key, []byte("fresh")); err != nil {
				t.Errorf("Put: %v", err)
			}
		}()
		t.Cleanup(func() { g.Open(); <-ch })
		if !g.WaitArrival(time.Minute) {
			t.Fatalf("the put never reached %s", p.Name())
		}
		return g.Open, ch
	}

	// Case A: the fresh value exists, locked, but its CAS has not run.
	// The snapshot opens without waiting for the put, and the insert,
	// stamped after the ratchet, stays outside it.
	t.Run("before-cas", func(t *testing.T) {
		disarmOnExit(t)
		m := newTestMap(t, 16)
		open, done := putParkedAt(t, m, FpInstallPublishLost)
		s := m.BeginSnapshot()
		defer m.EndSnapshot(s)
		m.StabilizeSnapshot(s)
		_, before := m.SnapGet(s, key, nil)
		open()
		<-done
		_, after := m.SnapGet(s, key, nil)
		if before || after {
			t.Fatalf("snapshot read key %v before the insert finished and %v after; want false both times", before, after)
		}
		if _, ok := m.Get(key); !ok {
			t.Fatal("live Get misses the finished insert")
		}
	})

	// Case B: the CAS has won and the stamp is not stored yet. A snapshot
	// read that meets the value now must wait for the stamp and answer as
	// a read after the put does.
	t.Run("before-stamp", func(t *testing.T) {
		disarmOnExit(t)
		m := newTestMap(t, 16)
		s := m.BeginSnapshot()
		defer m.EndSnapshot(s)
		m.StabilizeSnapshot(s)
		open, done := putParkedAt(t, m, FpHeaderLock)
		started, read := make(chan struct{}), make(chan struct{})
		var during bool
		go func() {
			defer close(read)
			close(started)
			_, during = m.SnapGet(s, key, nil)
		}()
		<-started
		// Give the read time to reach the value's lock. The sleep orders
		// the interleaving; it decides no outcome.
		time.Sleep(10 * time.Millisecond)
		open()
		<-done
		<-read
		_, after := m.SnapGet(s, key, nil)
		if during != after {
			t.Fatalf("snapshot read key %v while the insert was unstamped and %v after it finished", during, after)
		}
		if after {
			t.Fatal("a snapshot opened before the insert sees it")
		}
	})

	// Case C: the CAS has won and the stamp is not stored yet. A probe
	// that reports the key without locking its value must wait for the
	// stamp, so a snapshot opened after the probe contains the key.
	probes := []struct {
		name string
		seen func(m *Map) bool
	}{
		{"get", func(m *Map) bool { _, ok := m.Get(key); return ok }},
		{"put-if-absent", func(m *Map) bool {
			ok, err := m.PutIfAbsent(key, []byte("other"))
			if err != nil {
				t.Errorf("PutIfAbsent: %v", err)
			}
			return !ok
		}},
		{"scan", func(m *Map) bool {
			seen := false
			m.Ascend(nil, nil, func(uint64, ValueHandle) bool { seen = true; return false })
			return seen
		}},
		{"first", func(m *Map) bool { _, ok := m.First(); return ok }},
	}
	for _, p := range probes {
		t.Run("probe-then-snapshot/"+p.name, func(t *testing.T) {
			disarmOnExit(t)
			m := newTestMap(t, 16)
			open, done := putParkedAt(t, m, FpHeaderLock)
			var seen, in bool
			read := make(chan struct{})
			go func() {
				defer close(read)
				seen = p.seen(m)
				s := m.BeginSnapshot()
				defer m.EndSnapshot(s)
				m.StabilizeSnapshot(s)
				_, in = m.SnapGet(s, key, nil)
			}()
			// Give the probe time to meet the parked value. The sleep
			// orders the interleaving; it decides no outcome.
			time.Sleep(10 * time.Millisecond)
			open()
			<-done
			<-read
			if !seen {
				t.Fatal("the probe misses a key whose entry CAS had landed")
			}
			if !in {
				t.Fatal("the probe saw the key, and a snapshot opened after it misses the key")
			}
		})
	}
}
