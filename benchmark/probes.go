package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/epoch"
	"oakmap/internal/skiplist"
	"oakmap/internal/vheader"
)

// The layer probes time calls into each layer's exported functions from
// outside; nothing in the product is instrumented for them. They run only
// under -trace 1, on one goroutine unless the metric ends in _2g, on
// inputs drawn from the named workload's generator.
//
// Point-path stages are timed stage-batched: for a batch of 1,024 keys one
// stage runs for the whole batch between two clock reads, over a shadow
// Get/Put pipeline assembled from the layers' exported parts at the size
// of the real map, so the cache footprint is the real one and not one warm
// chunk. "self" metrics are differences (outer call minus the calls it
// makes) and may be negative; they are never clamped.

const probeBatch = 1024

// probes carries the probe suite's inputs and collects its metrics.
type probes struct {
	seed   uint64
	budget time.Duration // per timed probe
	out    metricSet
	// notes are figures behind the breakdown residuals, kept in the
	// report's detail so a missed target can be audited.
	notes map[string]float64
	// zcGetOnServerMap is the in-process ZC get on the server probes' own
	// map, which server.self_get_ns subtracts; it is not itself reported.
	zcGetOnServerMap float64
}

func (p *probes) set(name string, value float64) { p.out.set(name, value) }

// v reads back a probe's value for the metrics derived from it.
func (p *probes) v(name string) float64 { return p.out[name].Value }

// timeStages runs the stages back to back, each over the same batch of
// items, for about budget (at least 5 and at most maxRounds rounds); prep
// runs untimed before each round. It returns each stage's median
// nanoseconds per item over the rounds: rounds that a rebalance, a GC
// cycle or the host disturbed do not move it.
func timeStages(budget time.Duration, maxRounds, items int, prep func(), stages ...func()) []float64 {
	med, _ := timeStagesMean(budget, maxRounds, items, prep, stages...)
	return med
}

// timeStagesMean is timeStages that also returns each stage's mean, which
// keeps the rare expensive rounds; the breakdown residuals compare it with
// the mean of a workload's timed samples.
func timeStagesMean(budget time.Duration, maxRounds, items int, prep func(), stages ...func()) (med, avg []float64) {
	per := make([][]float64, len(stages))
	deadline := time.Now().Add(budget)
	for r := 0; r < maxRounds && (r < 5 || time.Now().Before(deadline)); r++ {
		if prep != nil {
			prep()
		}
		for i, st := range stages {
			t0 := time.Now()
			st()
			per[i] = append(per[i], float64(time.Since(t0))/float64(items))
		}
	}
	med, avg = make([]float64, len(stages)), make([]float64, len(stages))
	for i, v := range per {
		med[i] = median(v)
		for _, x := range v {
			avg[i] += x / float64(len(v))
		}
	}
	return med, avg
}

const noLimit = 1 << 30

// keyBatch is probeBatch keys in one flat buffer.
type keyBatch struct {
	flat []byte
	idx  [probeBatch]uint64
}

func newKeyBatch() *keyBatch {
	b := &keyBatch{flat: make([]byte, probeBatch*keyLen)}
	for i := 0; i < probeBatch; i++ {
		copy(b.key(i), newKey())
	}
	return b
}

func (b *keyBatch) key(i int) []byte { return b.flat[i*keyLen : (i+1)*keyLen : (i+1)*keyLen] }

// fill draws the batch's keys with next.
func (b *keyBatch) fill(next func() uint64) {
	for i := range b.idx {
		b.idx[i] = next()
		setKey(b.key(i), b.idx[i])
	}
}

// shadow is a Get/Put pipeline assembled from the layers' exported parts:
// keys and values in an arena, a header table, chunks at the real map's
// fill, and a skiplist over their minimal keys.
type shadow struct {
	alloc   *arena.Allocator
	hdr     *vheader.Table
	dom     *epoch.Domain
	per     int            // keys per chunk
	sorted  []*chunk.Chunk // every entry in the sorted prefix
	mixed   []*chunk.Chunk // a quarter of the entries in the list suffix
	index   *skiplist.List[*chunk.Chunk]
	handles []uint64
}

// buildShadow lays out keys keys over numChunks chunks. Keys, values and
// headers are allocated in the seeded ingestion order, so the keys of one
// chunk are scattered over the arena as they are in a map filled in random
// order (a rebalance moves entries, never keys).
func buildShadow(s *spec, seed uint64, numChunks int) (*shadow, error) {
	sh := &shadow{
		alloc: arena.NewAllocator(arena.NewPool(blockSize, 0)),
		hdr:   vheader.NewTable(),
		dom:   epoch.NewDomain(func([]epoch.Retired) {}),
		index: skiplist.New[*chunk.Chunk](bytes.Compare),
	}
	n := int(s.keys)
	keyRefs := make([]uint64, n)
	sh.handles = make([]uint64, n)
	key, val := newKey(), make([]byte, s.valMax)
	for _, i := range permutation(s.keys, newRNG(seed, 1<<32)) {
		idx := uint64(i)
		setKey(key, idx)
		kr, err := sh.alloc.Write(key)
		if err != nil {
			return nil, err
		}
		v := val[:initialLen(s, seed, idx)]
		fillValue(v, idx, 0)
		vr, err := sh.alloc.Write(v)
		if err != nil {
			return nil, err
		}
		h := sh.hdr.Alloc()
		sh.hdr.StoreData(h, uint64(vr))
		keyRefs[i], sh.handles[i] = uint64(kr), h
	}
	sh.per = (n + numChunks - 1) / numChunks
	if sh.per > chunk.DefaultCapacity*3/4 {
		return nil, fmt.Errorf("shadow: %d keys per chunk leave no room to insert", sh.per)
	}
	r := newRNG(seed, 2<<32)
	var prevS, prevM *chunk.Chunk
	for lo := 0; lo < n; lo += sh.per {
		hi := min(lo+sh.per, n)
		minKey := newKey()
		setKey(minKey, uint64(lo))
		var all, most []chunk.Pair
		var rest []int
		for i := lo; i < hi; i++ {
			pr := chunk.Pair{KeyRef: keyRefs[i], ValHandle: sh.handles[i]}
			all = append(all, pr)
			if (i-lo)%4 == 3 {
				rest = append(rest, i)
			} else {
				most = append(most, pr)
			}
		}
		cs := chunk.NewSorted(minKey, chunk.DefaultCapacity, sh.alloc, bytes.Compare, all)
		cm := chunk.NewSorted(minKey, chunk.DefaultCapacity, sh.alloc, bytes.Compare, most)
		for len(rest) > 0 { // link the rest in random order, as inserts arrive
			j := int(r.intn(uint64(len(rest))))
			i := rest[j]
			rest[j] = rest[len(rest)-1]
			rest = rest[:len(rest)-1]
			ei, st := cm.AllocateEntry(keyRefs[i])
			if st == chunk.OK {
				_, st = cm.PutIfAbsentInList(ei)
			}
			if st != chunk.OK || !cm.CASValHandle(ei, 0, sh.handles[i]) {
				return nil, fmt.Errorf("shadow: linking key %d: status %d", i, st)
			}
		}
		if prevS != nil {
			prevS.SetNext(cs)
			prevM.SetNext(cm)
		}
		prevS, prevM = cs, cm
		sh.sorted = append(sh.sorted, cs)
		sh.mixed = append(sh.mixed, cm)
		sh.index.Put(minKey, cs)
	}
	return sh, nil
}

// getPipeline times the stages of a Get over the shadow: epoch pin, index
// floor, chunk lookup, and the value read under the header's read lock;
// then the lookup again on chunks with a quarter of their entries unsorted. It fails if any stage returns the wrong entry.
func (p *probes) getPipeline(sh *shadow, s *spec) error {
	r := newRNG(p.seed, 3<<32)
	b := newKeyBatch()
	var (
		cs   [probeBatch]*chunk.Chunk
		hs   [probeBatch]uint64
		sum  uint64
		miss int
	)
	ns := timeStages(4*p.budget, noLimit, probeBatch,
		func() { b.fill(func() uint64 { return r.intn(s.keys) }) },
		func() { // epoch.pin_unpin_ns
			for i := 0; i < probeBatch; i++ {
				pinUnpin(sh.dom)
			}
		},
		func() { // skiplist.floor_ns
			for i := 0; i < probeBatch; i++ {
				e, _ := sh.index.Floor(b.key(i))
				cs[i] = e.Value
			}
		},
		func() { // chunk.lookup_ns
			for i := 0; i < probeBatch; i++ {
				if cs[i] == nil {
					miss++
					continue
				}
				ei := cs[i].LookUp(b.key(i))
				if ei < 0 || cs[i].ValHandle(ei) != sh.handles[b.idx[i]] {
					miss++
					continue
				}
				hs[i] = cs[i].ValHandle(ei)
			}
		},
		func() { // vheader.read_lock_pair_ns
			for i := 0; i < probeBatch; i++ {
				h := hs[i]
				if !sh.hdr.TryReadLock(h) {
					miss++
					continue
				}
				v := sh.alloc.Bytes(arena.Ref(sh.hdr.LoadData(h)))
				if binary.BigEndian.Uint64(v) != b.idx[i] {
					miss++
				}
				sum += binary.BigEndian.Uint64(v[8:])
				sh.hdr.ReadUnlock(h)
			}
		},
	)
	if miss != 0 || sum != 0 { // every ingested counter is 0
		return fmt.Errorf("shadow get pipeline: %d wrong results, counter sum %d", miss, sum)
	}
	p.set("epoch.pin_unpin_ns", ns[0])
	p.set("skiplist.floor_ns", ns[1])
	p.set("chunk.lookup_ns", ns[2])
	p.set("vheader.read_lock_pair_ns", ns[3])

	// The mixed chunks refer to the same key bytes, so their lookups get
	// a round of their own on fresh keys; after the sorted lookups of the
	// same batch every key compared would already be in cache.
	ns = timeStages(p.budget, noLimit, probeBatch,
		func() { b.fill(func() uint64 { return r.intn(s.keys) }) },
		func() {
			for i := 0; i < probeBatch; i++ {
				c := sh.mixed[int(b.idx[i])/sh.per]
				if ei := c.LookUp(b.key(i)); ei < 0 || c.ValHandle(ei) != sh.handles[b.idx[i]] {
					miss++
				}
			}
		})
	if miss != 0 {
		return fmt.Errorf("shadow mixed-chunk lookup: %d wrong results", miss)
	}
	p.set("chunk.lookup_unsorted_ns", ns[0])
	return nil
}

// chunkProbes times the intra-chunk descending iterator and the entry
// insert path. The inserts go into the mixed chunks and stay there, so
// this runs after getPipeline.
func (p *probes) chunkProbes(sh *shadow, s *spec) error {
	ci, entries := 0, 0
	ns := timeStages(p.budget, noLimit, 1, nil, func() {
		c := sh.sorted[ci%len(sh.sorted)]
		ci++
		it := c.NewDescIter(nil)
		for it.Next() >= 0 {
			entries++
		}
	})
	p.set("chunk.desc_iter_ns_per_entry", ns[0]/float64(sh.per))
	if entries == 0 {
		return fmt.Errorf("chunk desc iter yielded nothing")
	}

	// New keys sort right after an existing key: same index, one padding
	// byte raised. Each chunk has room for a quarter of its capacity.
	r := newRNG(p.seed, 4<<32)
	room := min(len(sh.mixed)*(chunk.DefaultCapacity/4-1)/probeBatch, 255) // gen is one byte
	var (
		refs [probeBatch]uint64
		at   [probeBatch]int
		bad  int
		gen  byte
	)
	key := newKey()
	ns = timeStages(p.budget, room, probeBatch,
		func() {
			gen++
			for i := range refs {
				idx := r.intn(s.keys)
				setKey(key, idx)
				key[8] = 0x80 | gen
				key[9] = byte(i)
				key[10] = byte(i >> 8)
				ref, err := sh.alloc.Write(key)
				if err != nil {
					bad++
				}
				refs[i], at[i] = uint64(ref), int(idx)/sh.per
			}
		},
		func() {
			for i := range refs {
				c := sh.mixed[at[i]]
				ei, st := c.AllocateEntry(refs[i])
				if st == chunk.OK {
					_, st = c.PutIfAbsentInList(ei)
				}
				if st != chunk.OK || !c.Publish() {
					bad++
					continue
				}
				c.CASValHandle(ei, 0, 1)
				c.Unpublish()
			}
		})
	if bad != 0 {
		return fmt.Errorf("chunk insert: %d failed", bad)
	}
	p.set("chunk.insert_ns", ns[0])
	return nil
}

// smallIndex times Floor on an index the size of the write-churn map's.
func (p *probes) smallIndex(s *spec, numChunks int) {
	l := skiplist.New[int](bytes.Compare)
	per := (int(s.keys) + numChunks - 1) / numChunks
	for lo := 0; lo < int(s.keys); lo += per {
		k := newKey()
		setKey(k, uint64(lo))
		l.Put(k, lo)
	}
	r := newRNG(p.seed, 5<<32)
	z := newZipf(s.keys, s.theta)
	b := newKeyBatch()
	sum := 0
	ns := timeStages(p.budget, noLimit, probeBatch,
		func() { b.fill(func() uint64 { return z.index(&r) }) },
		func() {
			for i := 0; i < probeBatch; i++ {
				e, _ := l.Floor(b.key(i))
				sum += e.Value
			}
		})
	_ = sum
	p.set("skiplist.floor_small_ns", ns[0])
}

// pair runs f on n goroutines at once and returns the wall nanoseconds
// per item of one goroutine.
func pair(n, items int, f func(g int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f(g)
		}(g)
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(items)
}

// pinUnpin is one empty epoch critical section.
func pinUnpin(d *epoch.Domain) {
	g := d.Pin()
	g.Unpin()
}

// epochProbes times pin/unpin on two goroutines and the amortised cost
// of Retire (advance and drain included).
func (p *probes) epochProbes() {
	freed := 0
	dom := epoch.NewDomain(func(r []epoch.Retired) { freed += len(r) })
	const n = 64 * probeBatch
	ns := timeStages(p.budget, noLimit, n, nil, func() {
		pair(2, 1, func(int) {
			for i := 0; i < n; i++ {
				pinUnpin(dom)
			}
		})
	})
	p.set("epoch.pin_unpin_2g_ns", ns[0])
	ns = timeStages(p.budget, noLimit, probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			dom.Retire(epoch.Retired{Kind: 1, Val: uint64(i)}, 64)
		}
	})
	p.set("epoch.retire_ns", ns[0])
}

// arenaProbes times alloc+free pairs on sizes uniform over write-churn's
// range (one and two goroutines) — every byte count, not the powers of two
// the workload draws, so the allocator's split, migrate and rescue paths
// are in the number (see spec.valLen) — then a 100-byte key write, and
// reads the footprint ratio the churn leaves behind.
func (p *probes) arenaProbes(s *spec) error {
	a := arena.NewAllocator(arena.NewPool(blockSize, 0))
	defer a.Close()
	const ring = 4096
	span := uint64(s.valMax - s.valMin + 1)
	var bad int
	churn := func(r *rng, live []arena.Ref) {
		for i := range live {
			if !live[i].IsNil() {
				a.Free(live[i])
			}
			ref, err := a.Alloc(s.valMin + int(r.intn(span)))
			if err != nil {
				bad++
			}
			live[i] = ref
		}
	}
	rings := [2][]arena.Ref{make([]arena.Ref, ring), make([]arena.Ref, ring)}
	rngs := [2]rng{newRNG(p.seed, 6<<32), newRNG(p.seed, 7<<32)}
	churn(&rngs[0], rings[0]) // fill, untimed
	churn(&rngs[1], rings[1])
	ns := timeStages(p.budget, noLimit, ring, nil, func() { churn(&rngs[0], rings[0]) })
	p.set("arena.alloc_free_ns", ns[0])
	ns = timeStages(p.budget, noLimit, ring, nil, func() {
		pair(2, 1, func(g int) { churn(&rngs[g], rings[g]) })
	})
	p.set("arena.alloc_free_2g_ns", ns[0])
	p.set("arena.footprint_ratio", float64(a.Footprint())/float64(a.LiveBytes()))

	key := newKey()
	var refs [probeBatch]arena.Ref
	ns = timeStages(p.budget, noLimit, probeBatch,
		func() {
			for i, ref := range refs {
				if !ref.IsNil() {
					a.Free(ref)
					refs[i] = arena.NilRef
				}
			}
		},
		func() {
			for i := range refs {
				ref, err := a.Write(key)
				if err != nil {
					bad++
				}
				refs[i] = ref
			}
		})
	p.set("arena.write_ns", ns[0])
	if bad != 0 {
		return fmt.Errorf("arena probes: %d allocations failed", bad)
	}
	return nil
}

// headerProbes times the write-lock pair on the write-churn hot set and
// header allocation.
func (p *probes) headerProbes(s *spec) error {
	t := vheader.NewTable()
	hs := make([]uint64, s.keys)
	for i := range hs {
		hs[i] = t.Alloc()
	}
	r := newRNG(p.seed, 8<<32)
	z := newZipf(s.keys, s.theta)
	var pick [probeBatch]uint64
	bad := 0
	ns := timeStages(p.budget, noLimit, probeBatch,
		func() {
			for i := range pick {
				pick[i] = hs[z.index(&r)]
			}
		},
		func() {
			for _, h := range pick {
				if !t.TryWriteLock(h) {
					bad++
					continue
				}
				t.WriteUnlock(h)
			}
		})
	p.set("vheader.write_lock_pair_ns", ns[0])
	fresh := vheader.NewTable()
	ns = timeStages(p.budget, 256, probeBatch, nil, func() { // 256 rounds bound the table at 6 MB
		for i := 0; i < probeBatch; i++ {
			fresh.Alloc()
		}
	})
	p.set("vheader.alloc_ns", ns[0])
	if bad != 0 {
		return fmt.Errorf("vheader probes: %d locks failed", bad)
	}
	return nil
}
