package core

import (
	"encoding/binary"
	"testing"
	"time"

	"oakmap/internal/faultpoint"
)

// Deterministic (-cpu 1 friendly) regressions for the single install
// routine, the single kill routine and retain-before-publish.

// snapView reads snapshot s both ways — point reads of keys 1..n and a
// full frozen-cursor scan — and fails unless both return exactly want.
func snapView(t *testing.T, m *Map, s uint64, when string, want map[int]string) {
	t.Helper()
	for i := 1; i <= 8; i++ {
		v, ok := snapGetString(t, m, s, ik(i))
		if w, present := want[i]; ok != present || v != w {
			t.Fatalf("%s: SnapGet(%d) = %q, %v; want %q, %v", when, i, v, ok, w, present)
		}
	}
	cur := m.NewFrozenCursor(s, nil, nil, false)
	n := 0
	for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
		n++
		k, v := cur.Key(), cur.Val()
		if w := want[int(binary.BigEndian.Uint64(k))]; w != string(v) {
			t.Fatalf("%s: frozen scan yielded %x = %q; want %q", when, k, v, w)
		}
	}
	if n != len(want) {
		t.Fatalf("%s: frozen scan yielded %d entries; want %d", when, n, len(want))
	}
}

// TestRetainBeforeDeletedBit parks a Remove right after it set the
// deleted bit. A snapshot taken before the remove must still resolve the
// key in that window: the pre-image entered the retained store before
// the deleted bit became loadable.
func TestRetainBeforeDeletedBit(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)
	want := map[int]string{1: "a", 2: "b", 3: "c"}
	for i, v := range want {
		mustPut(t, m, ik(i), []byte(v))
	}
	s, end := takeSnap(m)
	defer end()

	g := faultpoint.NewGate()
	defer g.Open()
	fpDeletedBit.Arm(g.Hook(1))
	done := make(chan struct{})
	go func() {
		defer close(done)
		if ok, err := m.Remove(ik(2)); !ok || err != nil {
			t.Errorf("Remove = %v, %v", ok, err)
		}
	}()
	if !g.WaitArrival(10 * time.Second) {
		t.Fatal("Remove never reached the deleted-bit window")
	}
	if _, ok := m.Get(ik(2)); ok {
		t.Fatal("live Get found a value whose deleted bit is set")
	}
	snapView(t, m, s, "deleted bit set, remove parked", want)
	g.Open()
	<-done
	snapView(t, m, s, "after remove", want)
}

// TestRetainBeforeBatchSettle drives a batch by hand and checks an older
// snapshot at every step the batch makes observable: installed, decided
// but not settled, mid-settle (parked at the batch delete's deleted
// bit), and settled. The snapshot must see the overwritten and the
// batch-deleted key's old values throughout.
func TestRetainBeforeBatchSettle(t *testing.T) {
	disarmOnExit(t)
	m := newTestMap(t, 16)
	want := map[int]string{1: "old1", 2: "old2", 3: "old3"}
	for i, v := range want {
		mustPut(t, m, ik(i), []byte(v))
	}
	s, end := takeSnap(m)

	desc := NewBatchDesc()
	bi := m.PrepareBatch(desc)
	if _, err := m.doPut(ik(1), BytesValue([]byte("new1")), nil, opPut, bi); err != nil {
		t.Fatal(err)
	}
	if _, err := m.doIfPresent(ik(2), nil, opRemove, bi); err != nil {
		t.Fatal(err)
	}
	if _, err := m.doPut(ik(4), BytesValue([]byte("new4")), nil, opPut, bi); err != nil {
		t.Fatal(err)
	}
	snapView(t, m, s, "installed", want)
	if v, _ := getString(t, m, ik(1)); v != "old1" {
		t.Fatalf("live Get(1) before commit = %q; want old1", v)
	}

	desc.Commit()
	snapView(t, m, s, "committed, not settled", want)
	if v, _ := getString(t, m, ik(1)); v != "new1" {
		t.Fatalf("live Get(1) after commit = %q; want new1", v)
	}
	if _, ok := m.Get(ik(2)); ok {
		t.Fatal("live Get(2) after commit: batch delete not visible")
	}

	g := faultpoint.NewGate()
	defer g.Open()
	fpDeletedBit.Arm(g.Hook(1))
	done := make(chan struct{})
	go func() {
		defer close(done)
		bi.settle(true)
	}()
	if !g.WaitArrival(10 * time.Second) {
		t.Fatal("settle never reached the batch delete's deleted-bit window")
	}
	snapView(t, m, s, "mid-settle", want)
	g.Open()
	<-done
	snapView(t, m, s, "settled", want)

	end()
	if st := m.MVCCStats(); st.RetainedBytes != 0 || st.RetainedSpans != 0 {
		t.Fatalf("retained store not drained after the snapshot closed: %+v", st)
	}
}

// TestInstallLostRaceExits forces both lost-race exits of the single
// install routine — Publish refused, entry CAS lost — for a plain put
// and for a batch put. The discarded value carries the batch's own
// pending stamp in the batch case: discarding it through the batch-aware
// lock would wait on the batch's own decision forever.
func TestInstallLostRaceExits(t *testing.T) {
	for _, fp := range []*faultpoint.Point{fpInstallPublishLost, fpInstallCASLost} {
		for _, batch := range []bool{false, true} {
			name := fp.Name() + "/plain"
			if batch {
				name = fp.Name() + "/batch"
			}
			t.Run(name, func(t *testing.T) {
				disarmOnExit(t)
				m := newTestMap(t, 16)
				fp.Arm(faultpoint.OnHit(1))
				var err error
				if batch {
					err = m.ApplyBatch([]BatchOp{{Key: ik(1), Val: []byte("v1")}})
				} else {
					err = m.Put(ik(1), []byte("v1"))
				}
				if err != nil {
					t.Fatal(err)
				}
				if f := fp.Fires(); f != 1 {
					t.Fatalf("%s fires = %d; want 1", fp.Name(), f)
				}
				if got, _ := getString(t, m, ik(1)); got != "v1" {
					t.Fatalf("Get = %q; want v1", got)
				}
				if m.Len() != 1 {
					t.Fatalf("Len = %d; want 1", m.Len())
				}
				assertOneDiscard(t, m, ik(1), []byte("v1"))
			})
		}
	}
}
