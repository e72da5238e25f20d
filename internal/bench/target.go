// Package bench is the repository's synchrobench equivalent (§5.1): it
// generates the paper's uniform-key workloads, runs an ingestion stage
// followed by a timed sustained stage over 1..N worker threads, and
// reports throughput together with GC and memory statistics. The
// cmd/oak-bench binary drives it to regenerate the paper's figures;
// bench_test.go wires it into testing.B for the ablations.
package bench

import (
	"encoding/binary"
	"sync/atomic"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/btree"
	"oakmap/internal/offheaplist"
	"oakmap/internal/skiplist"
)

// Target abstracts one compared solution (§5.1): Oak (ZC or legacy API),
// SkipList-OnHeap, or SkipList-OffHeap.
type Target interface {
	Name() string
	// PutIfAbsent inserts if absent (ingestion stage).
	PutIfAbsent(key, val []byte) bool
	// Put maps key to val (ZC-style: no old value returned).
	Put(key, val []byte)
	// Get touches the value of key (zero-copy access where supported).
	Get(key []byte) bool
	// GetCopy materializes a copy of the value (legacy API access).
	GetCopy(key, dst []byte) ([]byte, bool)
	// Compute modifies 8 bytes of the value in place (Fig. 4b).
	Compute(key []byte) bool
	// Remove deletes key.
	Remove(key []byte)
	// Scan visits up to n entries ascending from key, touching each
	// value; stream selects the allocation-free stream API if any.
	Scan(from []byte, n int, stream bool) int
	// ScanDesc visits up to n entries descending from key (exclusive).
	ScanDesc(from []byte, n int, stream bool) int
	Len() int
	OffHeapBytes() int64
	Close()
}

// touch folds a few bytes of a value so reads cannot be optimized away.
func touch(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0] ^ b[len(b)-1]
}

// sink receives touched bytes; exported via Sink to defeat dead-code
// elimination in benchmarks. Atomic: workers on many goroutines fold
// into it concurrently.
var sink atomic.Uint64

// fold records a value access in the sink.
func fold(b []byte) { sink.Add(uint64(touch(b)) + 1) }

// Sink returns the accumulated sink value.
func Sink() uint64 { return sink.Load() }

// --- Oak targets ---

// OakTarget drives an Oak map; CopyAPI selects the legacy get path
// ("Oak-Copy" in Fig. 4c).
type OakTarget struct {
	m       *oakmap.Map[[]byte, []byte]
	zc      oakmap.ZeroCopyMap[[]byte, []byte]
	copyAPI bool
}

// NewOak creates an Oak target. opts may be nil for paper defaults.
func NewOak(opts *oakmap.Options, copyAPI bool) *OakTarget {
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{}, opts)
	return &OakTarget{m: m, zc: m.ZC(), copyAPI: copyAPI}
}

// Name implements Target.
func (t *OakTarget) Name() string {
	if t.copyAPI {
		return "Oak-Copy"
	}
	return "Oak"
}

// PutIfAbsent implements Target.
func (t *OakTarget) PutIfAbsent(key, val []byte) bool {
	ok, err := t.zc.PutIfAbsent(key, val)
	return ok && err == nil
}

// Put implements Target.
func (t *OakTarget) Put(key, val []byte) { _ = t.zc.Put(key, val) }

// Get implements Target.
func (t *OakTarget) Get(key []byte) bool {
	if t.copyAPI {
		v, ok := t.m.Get(key)
		if ok {
			fold(v)
		}
		return ok
	}
	buf := t.zc.Get(key)
	if buf == nil {
		return false
	}
	err := buf.Read(func(b []byte) error {
		fold(b)
		return nil
	})
	return err == nil
}

// GetCopy implements Target.
func (t *OakTarget) GetCopy(key, dst []byte) ([]byte, bool) {
	buf := t.zc.Get(key)
	if buf == nil {
		return nil, false
	}
	out, err := buf.AppendTo(dst[:0])
	if err != nil {
		return nil, false
	}
	return out, true
}

// Compute implements Target: atomic in-place update of 8 bytes.
func (t *OakTarget) Compute(key []byte) bool {
	ok, _ := t.zc.ComputeIfPresent(key, func(w oakmap.OakWBuffer) error {
		b := w.Bytes()
		if len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		}
		return nil
	})
	return ok
}

// Remove implements Target.
func (t *OakTarget) Remove(key []byte) { _ = t.zc.Remove(key) }

// Scan implements Target.
func (t *OakTarget) Scan(from []byte, n int, stream bool) int {
	count := 0
	visit := func(k, v *oakmap.OakRBuffer) bool {
		v.Read(func(b []byte) error {
			fold(b)
			return nil
		})
		count++
		return count < n
	}
	if stream {
		t.zc.AscendStream(&from, nil, visit)
	} else {
		t.zc.Ascend(&from, nil, visit)
	}
	return count
}

// ScanDesc implements Target.
func (t *OakTarget) ScanDesc(from []byte, n int, stream bool) int {
	count := 0
	visit := func(k, v *oakmap.OakRBuffer) bool {
		v.Read(func(b []byte) error {
			fold(b)
			return nil
		})
		count++
		return count < n
	}
	if stream {
		t.zc.DescendStream(nil, &from, visit)
	} else {
		t.zc.Descend(nil, &from, visit)
	}
	return count
}

// Len implements Target.
func (t *OakTarget) Len() int { return t.m.Len() }

// OffHeapBytes implements Target.
func (t *OakTarget) OffHeapBytes() int64 { return t.m.Footprint() }

// Close implements Target.
func (t *OakTarget) Close() { t.m.Close() }

// Map exposes the underlying Oak map (for stats in experiments).
func (t *OakTarget) Map() *oakmap.Map[[]byte, []byte] { return t.m }

// --- SkipList-OnHeap target ---

// OnHeapTarget is the JDK-ConcurrentSkipListMap stand-in: every key and
// value is an ordinary heap object, merge/compute is non-atomic, and
// descending scans re-look-up each step.
type OnHeapTarget struct {
	l *skiplist.List[[]byte]
}

// NewOnHeap creates a SkipList-OnHeap target.
func NewOnHeap() *OnHeapTarget {
	return &OnHeapTarget{l: skiplist.New[[]byte](nil)}
}

// Name implements Target.
func (t *OnHeapTarget) Name() string { return "SkipList-OnHeap" }

// PutIfAbsent implements Target. Key and value are copied to fresh heap
// objects, as a Java map would hold fresh objects per entry.
func (t *OnHeapTarget) PutIfAbsent(key, val []byte) bool {
	return t.l.PutIfAbsent(append([]byte(nil), key...), append([]byte(nil), val...))
}

// Put implements Target.
func (t *OnHeapTarget) Put(key, val []byte) {
	t.l.Put(append([]byte(nil), key...), append([]byte(nil), val...))
}

// Get implements Target.
func (t *OnHeapTarget) Get(key []byte) bool {
	v, ok := t.l.Get(key)
	if ok {
		fold(v)
	}
	return ok
}

// GetCopy implements Target.
func (t *OnHeapTarget) GetCopy(key, dst []byte) ([]byte, bool) {
	v, ok := t.l.Get(key)
	if !ok {
		return nil, false
	}
	return append(dst[:0], v...), true
}

// Compute implements Target: the skiplist's non-atomic in-place update
// (Java merge semantics — mutate the referenced array directly).
func (t *OnHeapTarget) Compute(key []byte) bool {
	v, ok := t.l.Get(key)
	if !ok {
		return false
	}
	if len(v) >= 8 {
		binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
	}
	return true
}

// Remove implements Target.
func (t *OnHeapTarget) Remove(key []byte) { t.l.Remove(key) }

// Scan implements Target (stream flag is meaningless on-heap).
func (t *OnHeapTarget) Scan(from []byte, n int, _ bool) int {
	count := 0
	t.l.Ascend(from, nil, func(k []byte, v []byte) bool {
		fold(v)
		count++
		return count < n
	})
	return count
}

// ScanDesc implements Target: one fresh lookup per step, as in Java.
func (t *OnHeapTarget) ScanDesc(from []byte, n int, _ bool) int {
	count := 0
	t.l.Descend(nil, from, func(k []byte, v []byte) bool {
		fold(v)
		count++
		return count < n
	})
	return count
}

// Len implements Target.
func (t *OnHeapTarget) Len() int { return t.l.Len() }

// OffHeapBytes implements Target.
func (t *OnHeapTarget) OffHeapBytes() int64 { return 0 }

// Close implements Target.
func (t *OnHeapTarget) Close() {}

// --- SkipList-OffHeap target ---

// OffHeapTarget wraps the offheaplist baseline.
type OffHeapTarget struct {
	m *offheaplist.Map
}

// NewOffHeap creates a SkipList-OffHeap target; pool nil = shared pool.
func NewOffHeap(pool *arena.Pool) *OffHeapTarget {
	return &OffHeapTarget{m: offheaplist.New(pool)}
}

// Name implements Target.
func (t *OffHeapTarget) Name() string { return "SkipList-OffHeap" }

// PutIfAbsent implements Target.
func (t *OffHeapTarget) PutIfAbsent(key, val []byte) bool {
	ok, err := t.m.PutIfAbsent(key, val)
	return ok && err == nil
}

// Put implements Target.
func (t *OffHeapTarget) Put(key, val []byte) { _ = t.m.Put(key, val) }

// Get implements Target.
func (t *OffHeapTarget) Get(key []byte) bool {
	err := t.m.Read(key, func(b []byte) error {
		fold(b)
		return nil
	})
	return err == nil
}

// GetCopy implements Target.
func (t *OffHeapTarget) GetCopy(key, dst []byte) ([]byte, bool) {
	return t.m.GetCopy(key, dst)
}

// Compute implements Target.
func (t *OffHeapTarget) Compute(key []byte) bool {
	return t.m.ComputeIfPresent(key, func(b []byte) {
		if len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		}
	})
}

// Remove implements Target.
func (t *OffHeapTarget) Remove(key []byte) { t.m.Remove(key) }

// Scan implements Target.
func (t *OffHeapTarget) Scan(from []byte, n int, _ bool) int {
	count := 0
	t.m.Ascend(from, nil, func(k, v []byte) bool {
		fold(v)
		count++
		return count < n
	})
	return count
}

// ScanDesc implements Target.
func (t *OffHeapTarget) ScanDesc(from []byte, n int, _ bool) int {
	count := 0
	t.m.Descend(nil, from, func(k, v []byte) bool {
		fold(v)
		count++
		return count < n
	})
	return count
}

// Len implements Target.
func (t *OffHeapTarget) Len() int { return t.m.Len() }

// OffHeapBytes implements Target.
func (t *OffHeapTarget) OffHeapBytes() int64 { return t.m.Footprint() }

// Close implements Target.
func (t *OffHeapTarget) Close() { t.m.Close() }

// --- BTree-OffHeap target (the MapDB stand-in) ---

// BTreeTarget wraps the off-heap B+ tree baseline of §1.2/§5.1.
type BTreeTarget struct {
	m *btree.Map
}

// NewBTree creates a BTree-OffHeap target; pool nil = shared pool.
func NewBTree(pool *arena.Pool) *BTreeTarget {
	return &BTreeTarget{m: btree.New(pool)}
}

// Name implements Target.
func (t *BTreeTarget) Name() string { return "BTree-OffHeap" }

// PutIfAbsent implements Target.
func (t *BTreeTarget) PutIfAbsent(key, val []byte) bool {
	ok, err := t.m.PutIfAbsent(key, val)
	return ok && err == nil
}

// Put implements Target.
func (t *BTreeTarget) Put(key, val []byte) { _ = t.m.Put(key, val) }

// Get implements Target.
func (t *BTreeTarget) Get(key []byte) bool {
	ok, _ := t.m.Read(key, func(b []byte) error {
		fold(b)
		return nil
	})
	return ok
}

// GetCopy implements Target.
func (t *BTreeTarget) GetCopy(key, dst []byte) ([]byte, bool) {
	return t.m.GetCopy(key, dst)
}

// Compute implements Target.
func (t *BTreeTarget) Compute(key []byte) bool {
	return t.m.Compute(key, func(b []byte) {
		if len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		}
	})
}

// Remove implements Target.
func (t *BTreeTarget) Remove(key []byte) { t.m.Remove(key) }

// Scan implements Target.
func (t *BTreeTarget) Scan(from []byte, n int, _ bool) int {
	count := 0
	t.m.Ascend(from, func(k, v []byte) bool {
		fold(v)
		count++
		return count < n
	})
	return count
}

// ScanDesc implements Target.
func (t *BTreeTarget) ScanDesc(from []byte, n int, _ bool) int {
	count := 0
	t.m.Descend(from, func(k, v []byte) bool {
		fold(v)
		count++
		return count < n
	})
	return count
}

// Len implements Target.
func (t *BTreeTarget) Len() int { return t.m.Len() }

// OffHeapBytes implements Target.
func (t *BTreeTarget) OffHeapBytes() int64 { return t.m.Footprint() }

// Close implements Target.
func (t *BTreeTarget) Close() { t.m.Close() }
