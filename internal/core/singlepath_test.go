package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"testing"
	"time"

	"oakmap/internal/faultpoint"
)

// Deterministic (-cpu 1 friendly) regressions for the single install
// routine, the single kill routine, the single batch-visibility rule and
// retain-before-publish.

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
	FpDeletedBit.Arm(g.Hook(1))
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
	if _, err := m.doIfPresent(ik(2), nil, nil, opRemove, bi); err != nil {
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
	FpDeletedBit.Arm(g.Hook(1))
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

// entryHandle returns the value handle in key's entry, 0 if there is no
// entry or it holds ⊥.
func entryHandle(m *Map, key []byte) ValueHandle {
	g := m.reclaim.Pin()
	defer g.Unpin()
	c := m.locateChunk(key)
	if ei := c.LookUp(key); ei >= 0 {
		return ValueHandle(c.ValHandle(ei))
	}
	return 0
}

// liveReaders checks every live reader against want: Get presence and
// ReadValue through the entry's handle for keys 1..8 — a handle the entry
// holds but the live view cannot see must refuse the read — and a live
// cursor scan whose yielded handles are read the same way.
func liveReaders(t *testing.T, m *Map, when string, want map[int]string) {
	t.Helper()
	for i := 1; i <= 8; i++ {
		w, present := want[i]
		if _, ok := m.Get(ik(i)); ok != present {
			t.Fatalf("%s: Get(%d) found = %v; want %v", when, i, ok, present)
		}
		h := entryHandle(m, ik(i))
		if h == 0 {
			if present {
				t.Fatalf("%s: key %d has no entry; want %q", when, i, w)
			}
			continue
		}
		b, err := m.CopyValue(h, nil)
		if (err == nil) != present || string(b) != w {
			t.Fatalf("%s: ReadValue(%d) = %q, %v; want %q, present %v", when, i, b, err, w, present)
		}
	}
	got := map[int]string{}
	cur := m.NewCursor(nil, nil, false)
	for _, h, ok := cur.Next(); ok; _, h, ok = cur.Next() {
		if b, err := m.CopyValue(h, nil); err == nil {
			got[int(binary.BigEndian.Uint64(cur.Key()))] = string(b)
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%s: live cursor read %v; want %v", when, got, want)
	}
}

// TestBatchVisibilityTable checks the batch-visibility rule as a table:
// each kind of batch op (overwrite, fresh insert, tombstone) under each
// decision (commit, abort), driven by hand through the three states a
// reader can observe — installed, decided but unsettled, settled. At
// each, every reader must agree: the live ones see the pre-state until a
// commit and the post-state after; a snapshot taken before the batch
// always sees the pre-state; one begun after the decision sees what the
// decision chose. Closing both snapshots must drain the retained store.
func TestBatchVisibilityTable(t *testing.T) {
	put := func(m *Map, bi *BatchInstall) error {
		_, err := m.doPut(ik(2), BytesValue([]byte("new")), nil, opPut, bi)
		return err
	}
	del := func(m *Map, bi *BatchInstall) error {
		_, err := m.doIfPresent(ik(2), nil, nil, opRemove, bi)
		return err
	}
	cases := []struct {
		name      string
		pre, post map[int]string
		install   func(*Map, *BatchInstall) error
	}{
		{"overwrite", map[int]string{1: "a", 2: "old", 3: "c"}, map[int]string{1: "a", 2: "new", 3: "c"}, put},
		{"fresh-insert", map[int]string{1: "a", 3: "c"}, map[int]string{1: "a", 2: "new", 3: "c"}, put},
		{"tombstone", map[int]string{1: "a", 2: "old", 3: "c"}, map[int]string{1: "a", 3: "c"}, del},
	}
	for _, tc := range cases {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/commit=%v", tc.name, commit), func(t *testing.T) {
				m := newTestMap(t, 16)
				for i, v := range tc.pre {
					mustPut(t, m, ik(i), []byte(v))
				}
				before, endBefore := takeSnap(m)
				desc := NewBatchDesc()
				bi := m.PrepareBatch(desc)
				if err := tc.install(m, bi); err != nil {
					t.Fatal(err)
				}
				liveReaders(t, m, "pending", tc.pre)
				snapView(t, m, before, "pending, snapshot before", tc.pre)

				decided := tc.pre
				if commit {
					desc.Commit()
					decided = tc.post
				} else {
					desc.Abort()
				}
				after, endAfter := takeSnap(m)
				for _, when := range []string{"decided", "settled"} {
					if when == "settled" {
						bi.settle(commit)
					}
					liveReaders(t, m, when, decided)
					snapView(t, m, before, when+", snapshot before", tc.pre)
					snapView(t, m, after, when+", snapshot after the decision", decided)
				}
				endBefore()
				endAfter()
				if st := m.MVCCStats(); st.RetainedBytes != 0 || st.RetainedSpans != 0 {
					t.Fatalf("retained store not drained after the snapshots closed: %+v", st)
				}
			})
		}
	}
}

// TestInstallLostRaceExits forces both lost-race exits of the single
// install routine — Publish refused, entry CAS lost — for a plain put
// and for a batch put. The discarded value carries the batch's own
// pending stamp in the batch case: discarding it through the batch-aware
// lock would wait on the batch's own decision forever.
func TestInstallLostRaceExits(t *testing.T) {
	for _, fp := range []*faultpoint.Point{FpInstallPublishLost, FpInstallCASLost} {
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
