package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"oakmap/internal/arena"
)

// refModel is a sequential oracle for the map semantics.
type refModel map[string]string

// TestOpSequenceProperty drives the map and the oracle with identical
// random operation sequences and compares every observable result. Runs
// with a tiny chunk capacity so rebalances, splits and merges happen
// constantly.
func TestOpSequenceProperty(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		m := New(&Options{ChunkCapacity: 16, Pool: arena.NewPool(1<<20, 0)})
		defer m.Close()
		ref := refModel{}
		rng := rand.New(rand.NewPCG(seed, 99))
		for _, op := range opsRaw {
			k := ik(int(rng.Uint64() % 64))
			ks := string(k)
			switch op % 7 {
			case 0, 1:
				v := iv(int(op))
				if err := m.Put(k, v); err != nil {
					return false
				}
				ref[ks] = string(v)
			case 2:
				v := iv(int(op) + 1000)
				ok, err := m.PutIfAbsent(k, v)
				if err != nil {
					return false
				}
				_, had := ref[ks]
				if ok == had {
					return false // inserted iff absent
				}
				if !had {
					ref[ks] = string(v)
				}
			case 3:
				ok, err := m.Remove(k)
				if err != nil {
					return false
				}
				_, had := ref[ks]
				if ok != had {
					return false
				}
				delete(ref, ks)
			case 4:
				ok, err := m.ComputeIfPresent(k, func(w *WBuffer) error {
					b := w.Bytes()
					for i := range b {
						b[i] = 'C'
					}
					return nil
				})
				if err != nil {
					return false
				}
				old, had := ref[ks]
				if ok != had {
					return false
				}
				if had {
					ref[ks] = string(bytes.Repeat([]byte{'C'}, len(old)))
				}
			case 5:
				got, ok := getString2(m, k)
				want, had := ref[ks]
				if ok != had || (had && got != want) {
					return false
				}
			default:
				// Scan equality against the sorted oracle.
				var gotKeys []string
				m.Ascend(nil, nil, func(kr uint64, h ValueHandle) bool {
					gotKeys = append(gotKeys, string(m.KeyBytes(kr)))
					return true
				})
				var wantKeys []string
				for kk := range ref {
					wantKeys = append(wantKeys, kk)
				}
				sort.Strings(wantKeys)
				if len(gotKeys) != len(wantKeys) {
					return false
				}
				for i := range gotKeys {
					if gotKeys[i] != wantKeys[i] {
						return false
					}
				}
			}
		}
		return m.Len() == len(ref)
	}
	cfg := &quick.Config{MaxCount: 60, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func getString2(m *Map, k []byte) (string, bool) {
	h, ok := m.Get(k)
	if !ok {
		return "", false
	}
	b, err := m.CopyValue(h, nil)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// TestScanBoundsProperty: for random bounds, Ascend [lo,hi) equals the
// oracle filter, and Descend equals its reverse.
func TestScanBoundsProperty(t *testing.T) {
	m := newTestMap(t, 16)
	present := map[int]bool{}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 400; i++ {
		k := int(rng.Uint64() % 1000)
		m.Put(ik(k), iv(k))
		present[k] = true
	}
	var sorted []int
	for k := range present {
		sorted = append(sorted, k)
	}
	sort.Ints(sorted)

	f := func(a, b uint16) bool {
		lo, hi := int(a)%1100, int(b)%1100
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []int
		for _, k := range sorted {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		var asc []int
		m.Ascend(ik(lo), ik(hi), func(kr uint64, h ValueHandle) bool {
			asc = append(asc, kint(m, kr))
			return true
		})
		var desc []int
		m.Descend(ik(lo), ik(hi), func(kr uint64, h ValueHandle) bool {
			desc = append(desc, kint(m, kr))
			return true
		})
		if len(asc) != len(want) || len(desc) != len(want) {
			return false
		}
		for i := range want {
			if asc[i] != want[i] || desc[i] != want[len(want)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func kint(m *Map, kr uint64) int {
	b := m.KeyBytes(kr)
	n := 0
	for _, c := range b {
		n = n<<8 | int(c)
	}
	return n
}

// TestNavigationProperty checks Floor/Ceiling/Lower/Higher against the
// sorted oracle for random probes.
func TestNavigationProperty(t *testing.T) {
	m := newTestMap(t, 16)
	present := map[int]bool{}
	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 300; i++ {
		k := int(rng.Uint64() % 800)
		m.Put(ik(k), iv(k))
		present[k] = true
	}
	var sorted []int
	for k := range present {
		sorted = append(sorted, k)
	}
	sort.Ints(sorted)

	f := func(probeRaw uint16) bool {
		p := int(probeRaw) % 900
		floor, ceil, lower, higher := -1, -1, -1, -1
		for _, k := range sorted {
			if k <= p {
				floor = k
			}
			if k < p {
				lower = k
			}
			if k >= p && ceil < 0 {
				ceil = k
			}
			if k > p && higher < 0 {
				higher = k
			}
		}
		check := func(got []byte, ok bool, want int) bool {
			if (want >= 0) != ok {
				return false
			}
			return !ok || int(binary.BigEndian.Uint64(got)) == want
		}
		kr, ok := m.Floor(ik(p))
		if !check(kr, ok, floor) {
			return false
		}
		kr, ok = m.Ceiling(ik(p))
		if !check(kr, ok, ceil) {
			return false
		}
		kr, ok = m.Lower(ik(p))
		if !check(kr, ok, lower) {
			return false
		}
		kr, ok = m.Higher(ik(p))
		return check(kr, ok, higher)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolExhaustionMidStream: when the block pool runs dry, operations
// fail with an error and the map stays consistent and readable.
func TestPoolExhaustionMidStream(t *testing.T) {
	pool := arena.NewPool(1<<16, 1<<17) // two 64KiB blocks only
	m := New(&Options{ChunkCapacity: 64, Pool: pool})
	defer m.Close()
	var inserted []int
	var failedAt = -1
	for i := 0; i < 10000; i++ {
		err := m.Put(ik(i), bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			failedAt = i
			break
		}
		inserted = append(inserted, i)
	}
	if failedAt < 0 {
		t.Fatal("expected pool exhaustion")
	}
	// Everything inserted before the failure is still intact.
	for _, i := range inserted {
		h, ok := m.Get(ik(i))
		if !ok {
			t.Fatalf("key %d lost after exhaustion", i)
		}
		m.ReadValue(h, func(b []byte) error {
			if len(b) != 100 || b[0] != byte(i) {
				t.Fatalf("key %d corrupted", i)
			}
			return nil
		})
	}
	// Removing makes room again (free-list reuse).
	for _, i := range inserted[:len(inserted)/2] {
		if ok, _ := m.Remove(ik(i)); !ok {
			t.Fatalf("remove %d", i)
		}
	}
	if err := m.Put(ik(99999), bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatalf("put after freeing space: %v", err)
	}
}

// TestLargeValueRejected: a value exceeding the block size fails cleanly.
func TestLargeValueRejected(t *testing.T) {
	m := New(&Options{ChunkCapacity: 64, Pool: arena.NewPool(1<<16, 0)})
	defer m.Close()
	if err := m.Put(ik(1), make([]byte, 1<<17)); err == nil {
		t.Fatal("oversized value accepted")
	}
	if m.Len() != 0 {
		t.Fatal("failed put changed the size")
	}
	// The failed put may leave a linked entry holding just the key (the
	// value allocation failed after linking); it must be reused by the
	// next insert of the same key rather than duplicated.
	if m.LiveBytes() > 8 {
		t.Fatalf("LiveBytes = %d after failed put; want ≤ one key", m.LiveBytes())
	}
	if err := m.Put(ik(1), []byte("ok")); err != nil {
		t.Fatalf("reinsert after failed put: %v", err)
	}
	if got, _ := getString(t, m, ik(1)); got != "ok" {
		t.Fatalf("value after reinsert = %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after reinsert", m.Len())
	}
}

// TestRebalanceMergesEmptyChunks: removing a whole key range lets
// subsequent rebalances merge its chunks away.
func TestRebalanceMergesEmptyChunks(t *testing.T) {
	m := newTestMap(t, 32)
	const n = 4000
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	peak := m.NumChunks()
	for i := 0; i < n; i++ {
		m.Remove(ik(i))
	}
	// Churn a small window to trigger rebalances over the empty regions.
	for round := 0; round < 300; round++ {
		for i := 0; i < 40; i++ {
			mustPut(t, m, ik(i), iv(round))
		}
		for i := 0; i < 40; i++ {
			m.Remove(ik(i))
		}
	}
	if got := m.NumChunks(); got >= peak {
		t.Fatalf("chunks did not shrink: peak %d, now %d", peak, got)
	}
}

// TestIndexConsistencyAfterManyRebalances: locate every key through the
// index after heavy split/merge churn.
func TestIndexConsistencyAfterManyRebalances(t *testing.T) {
	m := newTestMap(t, 16)
	rng := rand.New(rand.NewPCG(11, 12))
	live := map[int]bool{}
	for i := 0; i < 20000; i++ {
		k := int(rng.Uint64() % 3000)
		if rng.Uint64()%3 == 0 {
			m.Remove(ik(k))
			delete(live, k)
		} else {
			mustPut(t, m, ik(k), iv(k))
			live[k] = true
		}
	}
	for k := range live {
		if _, ok := m.Get(ik(k)); !ok {
			t.Fatalf("live key %d unreachable", k)
		}
	}
	for k := 0; k < 3000; k++ {
		if !live[k] {
			if _, ok := m.Get(ik(k)); ok {
				t.Fatalf("dead key %d reachable", k)
			}
		}
	}
	if m.Len() != len(live) {
		t.Fatalf("Len %d != %d", m.Len(), len(live))
	}
}

// TestConcurrentScanDuringRebalance runs full scans while writers force
// constant splits, asserting RB1: keys present throughout are always
// reported, in order, exactly once.
func TestConcurrentScanDuringRebalance(t *testing.T) {
	m := newTestMap(t, 16)
	// Stable residents: every scan must see all of them.
	const residents = 500
	for i := 0; i < residents; i++ {
		mustPut(t, m, ik(i*10), iv(i))
	}
	stop := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewPCG(21, 22))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int(rng.Uint64()%residents)*10 + 1 + int(rng.Uint64()%9)
			if rng.Uint64()%2 == 0 {
				m.Put(ik(k), iv(k))
			} else {
				m.Remove(ik(k))
			}
		}
	}()
	for round := 0; round < 50; round++ {
		seen := map[int]int{}
		prev := -1
		m.Ascend(nil, nil, func(kr uint64, h ValueHandle) bool {
			k := kint(m, kr)
			if k <= prev {
				t.Fatalf("scan order violation: %d after %d", k, prev)
			}
			prev = k
			seen[k]++
			return true
		})
		for i := 0; i < residents; i++ {
			if seen[i*10] != 1 {
				t.Fatalf("round %d: resident %d seen %d times", round, i*10, seen[i*10])
			}
		}
	}
	close(stop)
}

// TestScanRB2NeverResurrects (RB2): keys removed before a scan starts
// and never re-inserted must not appear in the scan, even while
// rebalances churn the chunk list.
func TestScanRB2NeverResurrects(t *testing.T) {
	m := newTestMap(t, 16)
	const n = 600
	for i := 0; i < n; i++ {
		mustPut(t, m, ik(i), iv(i))
	}
	// Remove every third key before any scanning starts.
	removed := map[int]bool{}
	for i := 0; i < n; i += 3 {
		if ok, _ := m.Remove(ik(i)); !ok {
			t.Fatalf("remove %d", i)
		}
		removed[i] = true
	}
	stop := make(chan struct{})
	go func() {
		// Churn only keys ≥ n (never the removed ones) to force
		// rebalances that carry dead entries around.
		rng := rand.New(rand.NewPCG(3, 4))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := n + int(rng.Uint64()%500)
			if rng.Uint64()%2 == 0 {
				m.Put(ik(k), iv(k))
			} else {
				m.Remove(ik(k))
			}
		}
	}()
	for round := 0; round < 60; round++ {
		m.Ascend(nil, ik(n), func(kr uint64, h ValueHandle) bool {
			k := kint(m, kr)
			if removed[k] {
				t.Errorf("round %d: removed key %d resurrected in scan", round, k)
				return false
			}
			return true
		})
		m.Descend(nil, ik(n), func(kr uint64, h ValueHandle) bool {
			k := kint(m, kr)
			if removed[k] {
				t.Errorf("round %d: removed key %d resurrected in descend", round, k)
				return false
			}
			return true
		})
	}
	close(stop)
}
