// Benchmarks regenerating the paper's evaluation (one per figure panel)
// plus ablations of Oak's design choices. These use testing.B with
// scaled-down data shapes so `go test -bench=.` completes quickly; the
// cmd/oak-bench and cmd/druid-bench binaries run the full sweeps with
// the paper's 100B keys / 1KB values and longer sustained stages.
//
// The mapping to the paper:
//
//	BenchmarkFig3aIngest            — Fig. 3a ingestion throughput
//	BenchmarkFig3bIngestTightRAM    — Fig. 3b ingestion under RAM budget
//	BenchmarkFig4aPut               — Fig. 4a put-only
//	BenchmarkFig4bComputeIfPresent  — Fig. 4b in-place updates
//	BenchmarkFig4cGet               — Fig. 4c get-only (ZC and Copy)
//	BenchmarkFig4d95Get5Put         — Fig. 4d mixed workload
//	BenchmarkFig4eAscendScan        — Fig. 4e ascending scans (Set/Stream)
//	BenchmarkFig4fDescendScan       — Fig. 4f descending scans
//	BenchmarkFig5aDruidIngest       — Fig. 5a I² ingestion
//	BenchmarkFig5bDruidIngestTightRAM — Fig. 5b ingestion under RAM budget
//	BenchmarkFig5cDruidMemory       — Fig. 5c RAM overhead (bytes/row metric)
//	BenchmarkAblation*              — design-choice ablations (DESIGN.md §7)
package oakmap_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/bench"
	"oakmap/internal/core"
	"oakmap/internal/druid"
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

// runMix benchmarks one op of the mix per b.N iteration across targets.
func runMix(b *testing.B, mix bench.Mix, targets []bench.Target) {
	for _, t := range targets {
		t := t
		b.Run(t.Name(), func(b *testing.B) {
			cfg := benchConfig(1)
			bench.Warm(t, cfg)
			cfg.OpsPerThread = int64(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			r := bench.Run(t, cfg, mix)
			b.StopTimer()
			b.ReportMetric(r.KopsPerSec, "Kops/s")
		})
		t.Close()
	}
}

func BenchmarkFig3aIngest(b *testing.B) {
	for _, t := range benchTargets() {
		t := t
		b.Run(t.Name(), func(b *testing.B) {
			enc := bench.NewKeyEncoder(benchKeySize)
			kb := make([]byte, benchKeySize)
			val := bench.MakeValue(benchValueSize, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.PutIfAbsent(enc.Encode(kb, uint64(i)), val)
			}
		})
		t.Close()
	}
}

func BenchmarkFig3bIngestTightRAM(b *testing.B) {
	for _, t := range benchTargets() {
		t := t
		b.Run(t.Name(), func(b *testing.B) {
			prev := debug.SetMemoryLimit(256 << 20)
			defer debug.SetMemoryLimit(prev)
			enc := bench.NewKeyEncoder(benchKeySize)
			kb := make([]byte, benchKeySize)
			val := bench.MakeValue(benchValueSize, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.PutIfAbsent(enc.Encode(kb, uint64(i)), val)
			}
		})
		t.Close()
	}
}

func BenchmarkFig4aPut(b *testing.B)              { runMix(b, bench.MixPut, benchTargets()) }
func BenchmarkFig4bComputeIfPresent(b *testing.B) { runMix(b, bench.MixCompute, benchTargets()) }

func BenchmarkFig4cGet(b *testing.B) {
	targets := []bench.Target{
		bench.NewOak(&oakmap.Options{BlockSize: 8 << 20}, false),
		bench.NewOak(&oakmap.Options{BlockSize: 8 << 20}, true), // Oak-Copy
		bench.NewOnHeap(),
		bench.NewOffHeap(arena.NewPool(8<<20, 0)),
	}
	runMix(b, bench.MixGet, targets)
}

func BenchmarkFig4d95Get5Put(b *testing.B) { runMix(b, bench.Mix95Get5Put, benchTargets()) }

// scanBench runs one scan of scanLen entries per iteration.
func scanBench(b *testing.B, descending, stream bool, scanLen int) {
	targets := benchTargets()
	for _, t := range targets {
		t := t
		names := []string{t.Name()}
		if t.Name() == "Oak" {
			names = []string{"Oak-Set", "Oak-Stream"}
		}
		for _, name := range names {
			useStream := name == "Oak-Stream" || (stream && t.Name() != "Oak")
			b.Run(name, func(b *testing.B) {
				cfg := benchConfig(1)
				bench.Warm(t, cfg)
				enc := bench.NewKeyEncoder(benchKeySize)
				kb := make([]byte, benchKeySize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					from := enc.Encode(kb, uint64(i*7919%benchKeyRange))
					if descending {
						t.ScanDesc(from, scanLen, useStream)
					} else {
						t.Scan(from, scanLen, useStream)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(scanLen), "entries/scan")
			})
		}
		t.Close()
	}
}

func BenchmarkFig4eAscendScan(b *testing.B)  { scanBench(b, false, false, 1000) }
func BenchmarkFig4fDescendScan(b *testing.B) { scanBench(b, true, false, 1000) }

func BenchmarkFig5aDruidIngest(b *testing.B) {
	schema := druid.DefaultSchema(true)
	b.Run("I2-Oak", func(b *testing.B) {
		idx, err := druid.NewIndex(schema, &druid.IndexOptions{BlockSize: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		gen := druid.NewTupleGen(42, 4, []int{1000, 100000}, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := idx.Ingest(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("I2-legacy", func(b *testing.B) {
		idx, err := druid.NewLegacyIndex(schema)
		if err != nil {
			b.Fatal(err)
		}
		gen := druid.NewTupleGen(42, 4, []int{1000, 100000}, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := idx.Ingest(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5bDruidIngestTightRAM is Fig. 5b's panel: I² ingestion
// under a constrained RAM budget, where the GC burden separates the
// implementations.
func BenchmarkFig5bDruidIngestTightRAM(b *testing.B) {
	schema := druid.DefaultSchema(true)
	run := func(b *testing.B, ingest func(druid.Tuple) error) {
		prev := debug.SetMemoryLimit(256 << 20)
		defer debug.SetMemoryLimit(prev)
		gen := druid.NewTupleGen(42, 4, []int{1000, 100000}, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ingest(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("I2-Oak", func(b *testing.B) {
		idx, err := druid.NewIndex(schema, &druid.IndexOptions{BlockSize: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		run(b, idx.Ingest)
	})
	b.Run("I2-legacy", func(b *testing.B) {
		idx, err := druid.NewLegacyIndex(schema)
		if err != nil {
			b.Fatal(err)
		}
		run(b, idx.Ingest)
	})
}

// BenchmarkFig5cDruidMemory reports bytes of RAM per indexed row for the
// two I² implementations (the Fig. 5c overhead comparison), using the
// allocation metric as the proxy: allocations per ingested tuple.
func BenchmarkFig5cDruidMemory(b *testing.B) {
	schema := druid.DefaultSchema(true)
	b.Run("I2-Oak", func(b *testing.B) {
		idx, _ := druid.NewIndex(schema, &druid.IndexOptions{BlockSize: 8 << 20})
		defer idx.Close()
		gen := druid.NewTupleGen(7, 1, []int{1000, 100000}, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Ingest(gen.Next())
		}
		b.StopTimer()
		if idx.Cardinality() > 0 {
			b.ReportMetric(float64(idx.OffHeapBytes())/float64(idx.Cardinality()), "offheapB/row")
			b.ReportMetric(float64(idx.StoredDataBytes())/float64(idx.Cardinality()), "dataB/row")
		}
	})
	b.Run("I2-legacy", func(b *testing.B) {
		idx, _ := druid.NewLegacyIndex(schema)
		gen := druid.NewTupleGen(7, 1, []int{1000, 100000}, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Ingest(gen.Next())
		}
		b.StopTimer()
		if idx.Cardinality() > 0 {
			b.ReportMetric(float64(idx.StoredDataBytes())/float64(idx.Cardinality()), "dataB/row")
		}
	})
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

// BenchmarkMapDBComparison reruns the comparison §5 omits data for: the
// off-heap B+ tree (MapDB stand-in) against Oak under puts and gets.
func BenchmarkMapDBComparison(b *testing.B) {
	targets := []bench.Target{
		bench.NewOak(&oakmap.Options{BlockSize: 8 << 20}, false),
		bench.NewBTree(arena.NewPool(8<<20, 0)),
	}
	for _, mix := range []bench.Mix{bench.MixPut, bench.MixGet} {
		for _, t := range targets {
			b.Run(mix.Name+"/"+t.Name(), func(b *testing.B) {
				cfg := benchConfig(4) // contention exposes the global lock
				bench.Warm(t, cfg)
				cfg.OpsPerThread = int64(b.N/4 + 1)
				b.ResetTimer()
				r := bench.Run(t, cfg, mix)
				b.StopTimer()
				b.ReportMetric(r.KopsPerSec, "Kops/s")
			})
		}
	}
	for _, t := range targets {
		t.Close()
	}
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
