package server

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// scanSnapAll drives a snapshot-pinned scan to exhaustion, returning
// the collected key→value pairs and how many batches it took.
func scanSnapAll(t *testing.T, cl *Client, count int) (map[string]string, int) {
	t.Helper()
	got := make(map[string]string)
	cursor := "0"
	batches := 0
	args := []string{"SCAN", "0", "SNAP", "COUNT", fmt.Sprint(count)}
	for {
		r := do(t, cl, args...)
		if r.Kind != ReplyArray || len(r.Elems) != 2 {
			t.Fatalf("SCAN SNAP reply shape: %s", r)
		}
		batches++
		pairs := r.Elems[1]
		if pairs.Kind != ReplyArray || len(pairs.Elems)%2 != 0 {
			t.Fatalf("SCAN SNAP pairs shape: %s", pairs)
		}
		for i := 0; i < len(pairs.Elems); i += 2 {
			k := string(pairs.Elems[i].Str)
			if _, dup := got[k]; dup {
				t.Fatalf("key %q yielded twice", k)
			}
			got[k] = string(pairs.Elems[i+1].Str)
		}
		cursor = string(r.Elems[0].Str)
		if cursor == "0" {
			return got, batches
		}
		args = []string{"SCAN", cursor, "COUNT", fmt.Sprint(count)}
	}
}

func TestScanSnapFrozenAcrossBatches(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, addr := newTestServer(t, shards, Config{})
			cl := dialT(t, addr)

			const n = 40
			want := make(map[string]string, n)
			for i := 0; i < n; i++ {
				k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
				doOK(t, cl, "SET", k, v)
				want[k] = v
			}

			// First batch pins the snapshot...
			r := do(t, cl, "SCAN", "0", "SNAP", "COUNT", "7")
			cursor := string(r.Elems[0].Str)
			if !strings.HasPrefix(cursor, "s") {
				t.Fatalf("want snapshot cursor, got %q", cursor)
			}
			got := make(map[string]string)
			for i := 0; i < len(r.Elems[1].Elems); i += 2 {
				got[string(r.Elems[1].Elems[i].Str)] = string(r.Elems[1].Elems[i+1].Str)
			}

			// ...then the map churns: overwrites, deletes, inserts.
			for i := 0; i < n; i += 2 {
				doOK(t, cl, "SET", fmt.Sprintf("k%02d", i), "mutated")
			}
			doInt(t, cl, 1, "DEL", "k11")
			doOK(t, cl, "SET", "k99", "inserted-late")

			// The remaining batches still see the frozen view.
			for cursor != "0" {
				r = do(t, cl, "SCAN", cursor, "COUNT", "7")
				for i := 0; i < len(r.Elems[1].Elems); i += 2 {
					k := string(r.Elems[1].Elems[i].Str)
					if _, dup := got[k]; dup {
						t.Fatalf("key %q yielded twice", k)
					}
					got[k] = string(r.Elems[1].Elems[i+1].Str)
				}
				cursor = string(r.Elems[0].Str)
			}
			if len(got) != n {
				t.Fatalf("snapshot scan saw %d keys, want %d", len(got), n)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %q = %q, want frozen %q", k, got[k], v)
				}
			}

			// Exhaustion released the pinned snapshot.
			if c := s.snaps.count(); c != 0 {
				t.Fatalf("%d snapshot cursors still open", c)
			}
			if st := s.m.Stats(); st.OpenSnapshots != 0 || st.RetainedBytes != 0 {
				t.Fatalf("retained state after scan: OpenSnapshots=%d RetainedBytes=%d",
					st.OpenSnapshots, st.RetainedBytes)
			}
		})
	}
}

// TestMSetAtomicUnderSnapScan: concurrent MSETs flip a group of keys
// between generations; every snapshot-pinned scan must see one
// generation across the whole group — MSET is all-or-nothing.
func TestMSetAtomicUnderSnapScan(t *testing.T) {
	_, addr := newTestServer(t, 4, Config{})
	cl := dialT(t, addr)
	wcl := dialT(t, addr)

	keys := []string{"a", "b", "c", "d", "e", "f"}
	mset := func(gen int) {
		args := []string{"MSET"}
		for _, k := range keys {
			args = append(args, k, fmt.Sprintf("gen-%d", gen))
		}
		doOK(t, wcl, args...)
	}
	mset(0)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			mset(gen)
		}
	}()
	for round := 0; round < 60; round++ {
		got, _ := scanSnapAll(t, cl, 4)
		if len(got) != len(keys) {
			t.Fatalf("round %d: saw %d keys, want %d", round, len(got), len(keys))
		}
		var ref string
		for _, k := range keys {
			v, ok := got[k]
			if !ok {
				t.Fatalf("round %d: key %q missing", round, k)
			}
			if ref == "" {
				ref = v
			} else if v != ref {
				t.Fatalf("round %d: torn MSET: %q vs %q (%v)", round, v, ref, got)
			}
		}
	}
	close(stop)
	<-done
}

func TestScanSnapCursorErrors(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{SnapScanMax: 1})
	cl := dialT(t, addr)

	for i := 0; i < 10; i++ {
		doOK(t, cl, "SET", fmt.Sprintf("k%02d", i), "v")
	}

	// SNAP is only valid on a fresh cursor.
	doErr(t, cl, "SCAN", "kfoo", "SNAP")
	// Unknown snapshot cursor.
	doErr(t, cl, "SCAN", "s99999")
	// Malformed snapshot cursor.
	doErr(t, cl, "SCAN", "sxyz")

	// Capacity: one unfinished snap scan occupies the only slot.
	r := do(t, cl, "SCAN", "0", "SNAP", "COUNT", "3")
	cursor := string(r.Elems[0].Str)
	if !strings.HasPrefix(cursor, "s") {
		t.Fatalf("want snapshot cursor, got %q", cursor)
	}
	doErr(t, cl, "SCAN", "0", "SNAP", "COUNT", "3")

	// Finishing the scan frees the slot.
	for cursor != "0" {
		r = do(t, cl, "SCAN", cursor, "COUNT", "5")
		cursor = string(r.Elems[0].Str)
	}
	if c := s.snaps.count(); c != 0 {
		t.Fatalf("%d snapshot cursors open after exhaustion", c)
	}
	r = do(t, cl, "SCAN", "0", "SNAP", "COUNT", "3")
	if r.Kind == ReplyError {
		t.Fatalf("slot not released: %s", r)
	}
}

func TestScanSnapTTLReap(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{SnapScanTTL: 20 * time.Millisecond})
	cl := dialT(t, addr)
	for i := 0; i < 10; i++ {
		doOK(t, cl, "SET", fmt.Sprintf("k%02d", i), "v")
	}
	r := do(t, cl, "SCAN", "0", "SNAP", "COUNT", "3")
	cursor := string(r.Elems[0].Str)
	time.Sleep(50 * time.Millisecond)
	// The next registry operation reaps the expired entry; a fresh SNAP
	// create is one such operation.
	r2 := do(t, cl, "SCAN", "0", "SNAP", "COUNT", "3")
	if r2.Kind == ReplyError {
		t.Fatalf("fresh snap scan failed: %s", r2)
	}
	// The abandoned cursor is gone.
	doErr(t, cl, "SCAN", cursor, "COUNT", "3")
	// Drain the live one so cleanup sees zero.
	c2 := string(r2.Elems[0].Str)
	for c2 != "0" {
		r2 = do(t, cl, "SCAN", c2, "COUNT", "5")
		c2 = string(r2.Elems[0].Str)
	}
	if got := s.snaps.count(); got != 0 {
		t.Fatalf("snap cursors open: %d", got)
	}
}

// TestSnapCursorConcurrentExhaust: two connections present the same
// SNAP cursor; one exhausts it while the other is still mid-batch. The
// exhaustion must not tear down the frozen view under the active
// reader — the snapshot closes only when the last batch releases.
func TestSnapCursorConcurrentExhaust(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{})
	cl := dialT(t, addr)
	doOK(t, cl, "SET", "k", "v")

	id, err := s.snaps.create(s.m, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sn, ok := s.snaps.acquire(id) // connection A, mid-batch
	if !ok {
		t.Fatal("acquire A failed")
	}
	if _, ok := s.snaps.acquire(id); !ok { // connection B
		t.Fatal("acquire B failed")
	}
	s.snaps.release(id, true) // B exhausts the scan

	// A's frozen view must still be open and readable.
	if st := s.m.Stats(); st.OpenSnapshots != 1 {
		t.Fatalf("snapshot closed under an active reader: OpenSnapshots=%d", st.OpenSnapshots)
	}
	if _, present := sn.GetRaw([]byte("k"), nil); !present {
		t.Fatal("frozen view unreadable after concurrent exhaustion")
	}
	// The dead cursor refuses new batches.
	if _, ok := s.snaps.acquire(id); ok {
		t.Fatal("acquire succeeded on an exhausted cursor")
	}
	// A's release is the last one out: it closes the snapshot.
	s.snaps.release(id, false)
	if st := s.m.Stats(); st.OpenSnapshots != 0 {
		t.Fatalf("OpenSnapshots=%d after last release", st.OpenSnapshots)
	}
	if c := s.snaps.count(); c != 0 {
		t.Fatalf("%d cursors still registered", c)
	}
}

// TestScanSnapTTLReapWithoutTraffic: an abandoned SNAP cursor must be
// reaped by the background ticker even if no further SNAP command ever
// arrives — otherwise it pins the reclaim horizon indefinitely.
func TestScanSnapTTLReapWithoutTraffic(t *testing.T) {
	s, addr := newTestServer(t, 0, Config{SnapScanTTL: 20 * time.Millisecond})
	cl := dialT(t, addr)
	for i := 0; i < 10; i++ {
		doOK(t, cl, "SET", fmt.Sprintf("k%02d", i), "v")
	}
	r := do(t, cl, "SCAN", "0", "SNAP", "COUNT", "3")
	if !strings.HasPrefix(string(r.Elems[0].Str), "s") {
		t.Fatalf("want snapshot cursor, got %q", r.Elems[0].Str)
	}
	// Abandon the cursor; issue nothing else. The ticker must sweep it.
	deadline := time.Now().Add(3 * time.Second)
	for s.snaps.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned cursor not reaped: %d open", s.snaps.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.m.Stats(); st.OpenSnapshots != 0 || st.RetainedBytes != 0 {
		t.Fatalf("pinned state after reap: OpenSnapshots=%d RetainedBytes=%d",
			st.OpenSnapshots, st.RetainedBytes)
	}
}

// TestScanSnapPagesMatchLive: on a quiescent map a SNAP scan is the live
// scan plus values — one pager serves both — so for every page size the
// two must cut the same pages, at the same keys, with the snapshot
// cursor carrying the live cursor after its "s<id>" prefix.
func TestScanSnapPagesMatchLive(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr := newTestServer(t, shards, Config{})
			cl := dialT(t, addr)
			vals := map[string]string{}
			for i := 0; i < 30; i++ {
				k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
				doOK(t, cl, "SET", k, v)
				vals[k] = v
			}
			const hi = "k25" // keys k00..k24 are in range
			type page struct {
				cursor string
				keys   []string
			}
			scan := func(count int, snap bool) []page {
				var pages []page
				args := []string{"SCAN", "0", "COUNT", fmt.Sprint(count), "END", hi}
				if snap {
					args = append(args, "SNAP")
				}
				for {
					r := do(t, cl, args...)
					if r.Kind != ReplyArray || len(r.Elems) != 2 || r.Elems[1].Kind != ReplyArray {
						t.Fatalf("SCAN reply shape: %s", r)
					}
					p := page{cursor: string(r.Elems[0].Str)}
					items := r.Elems[1].Elems
					for i := 0; i < len(items); i++ {
						k := string(items[i].Str)
						p.keys = append(p.keys, k)
						if snap {
							i++
							if i == len(items) {
								t.Fatalf("SNAP page without a value for %q", k)
							}
							if v := string(items[i].Str); v != vals[k] {
								t.Fatalf("SNAP value of %q = %q; want %q", k, v, vals[k])
							}
						}
					}
					pages = append(pages, p)
					if p.cursor == "0" {
						return pages
					}
					args = []string{"SCAN", p.cursor, "COUNT", fmt.Sprint(count), "END", hi}
				}
			}
			for _, count := range []int{1, 7, 100} {
				live, frozen := scan(count, false), scan(count, true)
				if len(live) != len(frozen) {
					t.Fatalf("COUNT %d: %d live pages, %d SNAP pages", count, len(live), len(frozen))
				}
				var all []string
				for i := range live {
					lp, fp := live[i], frozen[i]
					if strings.Join(lp.keys, ",") != strings.Join(fp.keys, ",") {
						t.Fatalf("COUNT %d page %d: live %v, SNAP %v", count, i, lp.keys, fp.keys)
					}
					if lp.cursor == "0" && fp.cursor != "0" ||
						lp.cursor != "0" && !(strings.HasPrefix(fp.cursor, "s") && strings.HasSuffix(fp.cursor, lp.cursor)) {
						t.Fatalf("COUNT %d page %d: live cursor %q, SNAP cursor %q", count, i, lp.cursor, fp.cursor)
					}
					all = append(all, lp.keys...)
				}
				if len(all) != 25 || all[0] != "k00" || all[24] != "k24" {
					t.Fatalf("COUNT %d: pages cover %v; want k00..k24", count, all)
				}
			}
		})
	}
}
