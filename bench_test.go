// Benchmarks that no figure driver runs: ablations of Oak's design
// choices (DESIGN.md §7), the zero-copy versus legacy put, a Zipfian
// contention mix and the pull iterator against the callback scan. They
// use testing.B with scaled-down data shapes so `go test -bench=.`
// completes quickly; cmd/oak-bench regenerates the paper's figures.
package oakmap_test

import (
	"fmt"
	"testing"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/bench"
	"oakmap/internal/core"
)

const (
	benchKeyRange  = 50_000
	benchKeySize   = 32
	benchValueSize = 256
)

func benchTargets() []bench.Target {
	return []bench.Target{
		bench.NewOak(&oakmap.Options{BlockSize: 8 << 20}, false),
		bench.NewOnHeap(),
		bench.NewOffHeap(arena.NewPool(8<<20, 0)),
	}
}

func benchConfig(threads int) bench.Config {
	return bench.Config{
		Threads:   threads,
		KeyRange:  benchKeyRange,
		KeySize:   benchKeySize,
		ValueSize: benchValueSize,
		Seed:      42,
	}
}

// --- Ablations (DESIGN.md §7) ---

// BenchmarkAblationChunkSize sweeps the entries-array capacity.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, capacity := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			t := bench.NewOak(&oakmap.Options{ChunkCapacity: capacity, BlockSize: 8 << 20}, false)
			defer t.Close()
			cfg := benchConfig(1)
			bench.Warm(t, cfg)
			cfg.OpsPerThread = int64(b.N)
			b.ResetTimer()
			r := bench.Run(t, cfg, bench.MixPut)
			b.StopTimer()
			b.ReportMetric(r.KopsPerSec, "Kops/s")
		})
	}
}

// BenchmarkAblationDescend compares Oak's stack-based descending scan
// with the naive per-key-lookup implementation skiplists use — isolating
// the contribution of §4.2's design.
func BenchmarkAblationDescend(b *testing.B) {
	m := core.New(&core.Options{Pool: arena.NewPool(8<<20, 0)})
	defer m.Close()
	enc := bench.NewKeyEncoder(benchKeySize)
	kb := make([]byte, benchKeySize)
	val := bench.MakeValue(benchValueSize, 1)
	for i := 0; i < benchKeyRange; i++ {
		m.Put(enc.Encode(kb, uint64(i)), val)
	}
	const scanLen = 1000
	b.Run("chunk-stack", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			m.Descend(nil, nil, func(uint64, core.ValueHandle) bool {
				n++
				return n < scanLen
			})
		}
	})
	b.Run("naive-lookup-per-key", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One fresh O(log n) Lower query per key, the way skiplists
			// descend; nil is the open bound the first query starts from.
			var bound []byte
			for n := 0; n < scanLen; n++ {
				var ok bool
				if bound, ok = m.Lower(bound); !ok {
					break
				}
			}
		}
	})
}

// BenchmarkZCvsLegacyPut quantifies the copying saved by the zero-copy
// write path (Table 1's design rationale). Both sub-benchmarks overwrite
// keys of a pre-populated map, so they measure the same update path; the
// legacy put additionally deserializes and returns the old value.
func BenchmarkZCvsLegacyPut(b *testing.B) {
	newWarm := func() *oakmap.Map[uint64, []byte] {
		m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
			&oakmap.Options{BlockSize: 8 << 20})
		val := bench.MakeValue(benchValueSize, 3)
		for i := 0; i < benchKeyRange; i++ {
			m.ZC().Put(uint64(i), val)
		}
		return m
	}
	val := bench.MakeValue(benchValueSize, 4)
	b.Run("zc-put", func(b *testing.B) {
		m := newWarm()
		defer m.Close()
		zc := m.ZC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			zc.Put(uint64(i%benchKeyRange), val)
		}
	})
	b.Run("legacy-put-returning-old", func(b *testing.B) {
		m := newWarm()
		defer m.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Put(uint64(i%benchKeyRange), val)
		}
	})
}

// BenchmarkZipfContention measures the solutions under a skewed key
// distribution (synchrobench's Zipf workloads): hot keys concentrate
// updates on a few values, stressing Oak's per-value locks against the
// baselines' node-level synchronization.
func BenchmarkZipfContention(b *testing.B) {
	for _, t := range benchTargets() {
		t := t
		b.Run(t.Name(), func(b *testing.B) {
			cfg := benchConfig(4)
			cfg.ZipfS = 1.3
			bench.Warm(t, cfg)
			cfg.OpsPerThread = int64(b.N/4 + 1)
			b.ResetTimer()
			r := bench.Run(t, cfg, bench.Mix{Name: "zipf-50put", PutPct: 50})
			b.StopTimer()
			b.ReportMetric(r.KopsPerSec, "Kops/s")
		})
		t.Close()
	}
}

// BenchmarkIteratorVsCallback compares the pull iterator with the
// callback scan over the same range (the pull form costs one cursor
// object; both are allocation-free per entry in stream mode).
func BenchmarkIteratorVsCallback(b *testing.B) {
	m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{BlockSize: 8 << 20})
	defer m.Close()
	zc := m.ZC()
	val := bench.MakeValue(64, 1)
	for i := uint64(0); i < 20000; i++ {
		zc.Put(i, val)
	}
	const scanLen = 1000
	b.Run("callback-stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			zc.AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
				n++
				return n < scanLen
			})
		}
	})
	b.Run("pull-iterator-stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := zc.Iterator(nil, nil, false, true)
			for n := 0; n < scanLen; n++ {
				if _, _, ok := it.Next(); !ok {
					break
				}
			}
		}
	})
}
