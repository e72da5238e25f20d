package oakmap

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestScanRunWindow covers the window a push scan opens between gathering
// a run of entries — their deleted bits checked together, their keys and
// values prefetched — and yielding them one by one. Each callback removes
// stable keys later in the current run and inserts keys ahead of the
// cursor, so 16-entry chunks split and merge under the scan, while a
// churner adds and removes keys of its own in the same range. Through all
// of it:
//   - a stream key view reads its own key's bytes, removed or not;
//   - an entry removed before its yield has a value view that fails with
//     ErrConcurrentModification, and Range skips it;
//   - keys come in strict order, none twice, and every stable key the
//     callbacks left alone is yielded;
//   - afterwards the map drains with KeyLeakBytes 0 and an empty limbo.
func TestScanRunWindow(t *testing.T) {
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 16, BlockSize: 1 << 20})
	defer m.Close()
	zc := m.ZC()
	val := func(k uint64) []byte { return binary.BigEndian.AppendUint64(nil, ^k) }

	// Keys ≡ 0 mod 4 are stable (removed only by callbacks), ≡ 2 mod 4 are
	// inserted by callbacks, ≡ 1 mod 4 belong to the churner, which runs
	// for the length of one scan. Each round scans a fresh region of keys.
	const region, rounds, churnOps = 1024, 32, 4096
	churn := func(lo uint64, seed uint64, done <-chan struct{}) {
		rng := rand.New(rand.NewPCG(seed, 4))
		for range churnOps {
			select {
			case <-done:
				return
			default:
			}
			k := lo + 4*rng.Uint64N(region/4) + 1
			if rng.IntN(2) == 0 {
				zc.Put(k, val(k))
			} else {
				zc.Remove(k)
			}
		}
	}

	forms := []struct {
		name   string
		desc   bool
		stream bool
	}{
		{"AscendStream", false, true},
		{"DescendStream", true, true},
		{"Range", false, false},
		{"RangeDescending", true, false},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for r := uint64(0); r < rounds; r++ {
		form := forms[r%uint64(len(forms))]
		lo, hi := r*region, (r+1)*region
		for k := lo; k < hi; k += 4 {
			if err := zc.Put(k, val(k)); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); churn(lo, r, done) }()
		removed := map[uint64]bool{}
		seen := map[uint64]bool{}
		var prev uint64
		// visit checks one yielded entry (v is nil when its value read
		// failed with err) and then mutates ahead of the cursor.
		visit := func(k uint64, v []byte, err error) error {
			if k < lo || k >= hi {
				return fmt.Errorf("key %d outside [%d, %d)", k, lo, hi)
			}
			if len(seen) > 0 && (form.desc && k >= prev || !form.desc && k <= prev) {
				return fmt.Errorf("key %d after %d", k, prev)
			}
			prev, seen[k] = k, true
			switch {
			case removed[k] && form.stream && err != ErrConcurrentModification:
				return fmt.Errorf("removed key %d: value read gave %x, %v", k, v, err)
			case removed[k] && !form.stream:
				return fmt.Errorf("Range yielded key %d removed before its yield", k)
			case removed[k]:
			case err == ErrConcurrentModification && k%4 == 1: // the churner's
			case err != nil || string(v) != string(val(k)):
				return fmt.Errorf("key %d: value %x, %v", k, v, err)
			}
			next := func(k, d uint64) uint64 {
				if form.desc {
					return k - d
				}
				return k + d
			}
			ahead := k &^ 3 // the stable key at or behind k
			if form.desc {
				ahead = (k + 3) &^ 3
			}
			for range 1 + rng.IntN(6) {
				if ahead = next(ahead, 4); ahead >= lo && ahead < hi {
					if _, ok, err := m.Remove(ahead); err != nil {
						return err
					} else if ok {
						removed[ahead] = true
					}
				}
			}
			if ins := next(ahead, 2); ins >= lo && ins < hi && rng.IntN(2) == 0 {
				return zc.Put(ins, val(ins))
			}
			return nil
		}
		var failed error
		check := func(err error) bool {
			failed = err
			return err == nil
		}
		if form.stream {
			f := func(kb, vb *OakRBuffer) bool {
				kbytes, err := kb.Bytes()
				if err != nil || len(kbytes) != 8 {
					return check(fmt.Errorf("stream key view: %x, %v", kbytes, err))
				}
				v, err := vb.Bytes()
				return check(visit(binary.BigEndian.Uint64(kbytes), v, err))
			}
			if form.desc {
				zc.DescendStream(&lo, &hi, f)
			} else {
				zc.AscendStream(&lo, &hi, f)
			}
		} else {
			f := func(k uint64, v []byte) bool { return check(visit(k, v, nil)) }
			if form.desc {
				m.RangeDescending(&lo, &hi, f)
			} else {
				m.Range(&lo, &hi, f)
			}
		}
		close(done)
		wg.Wait()
		if failed != nil {
			t.Fatalf("round %d (%s): %v", r, form.name, failed)
		}
		for k := lo; k < hi; k += 4 {
			if !removed[k] && !seen[k] {
				t.Fatalf("round %d (%s): stable key %d never yielded", r, form.name, k)
			}
		}
		if len(removed) == 0 {
			t.Fatalf("round %d (%s): the callbacks removed nothing", r, form.name)
		}
		for k := lo; k < hi; k++ {
			if err := zc.Remove(k); err != nil {
				t.Fatal(err)
			}
		}
	}

	s, ok := m.StatsConsistent()
	if !ok {
		t.Fatal("StatsConsistent failed: limbo did not drain with no readers pinned")
	}
	if s.Len != 0 || s.KeyLeakBytes != 0 || s.LimboItems != 0 || s.LimboBytes != 0 {
		t.Fatalf("after drain: len=%d KeyLeakBytes=%d limboItems=%d limboBytes=%d",
			s.Len, s.KeyLeakBytes, s.LimboItems, s.LimboBytes)
	}
	if s.Rebalances == 0 {
		t.Fatal("no rebalance ran under the scans")
	}
}
