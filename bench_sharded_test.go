// Shard-scaling benchmarks for the hash-partitioned front-end: the same
// zipfian point-op mix run against 1, 4, and 16 shards at 1–32
// goroutines, plus the merged full scan. Results are discussed in
// EXPERIMENTS.md "Shard scaling" — note that on a single-CPU host the
// contention relief sharding buys cannot turn into wall-clock speedup;
// the interesting single-core signals are the routing overhead (1 shard
// vs plain) and the merge overhead per shard.
package oakmap_test

import (
	"fmt"
	mrand "math/rand" // v1: home of rand.Zipf
	"sync/atomic"
	"testing"

	"oakmap"
)

const (
	shardBenchKeys    = 50_000
	shardBenchValSize = 128
	shardBenchZipfS   = 1.2
)

func newShardedBench(b *testing.B, shards int) *oakmap.Map[uint64, []byte] {
	b.Helper()
	m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{BlockSize: 8 << 20, Shards: shards})
	val := make([]byte, shardBenchValSize)
	zcm := m.ZC()
	for k := uint64(0); k < shardBenchKeys; k++ {
		if err := zcm.Put(k, val); err != nil {
			b.Fatalf("preload: %v", err)
		}
	}
	return m
}

// BenchmarkShardScalingZipf is the headline grid: a zipfian mix of 80%
// zero-copy gets, 15% puts, and 5% in-place computes (the hottest keys
// absorb most of the computes — the worst case for a single map's value
// write locks, the best case for sharding).
func BenchmarkShardScalingZipf(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		for _, gs := range []int{1, 4, 32} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, gs), func(b *testing.B) {
				m := newShardedBench(b, shards)
				defer m.Close()
				zc := m.ZC()
				val := make([]byte, shardBenchValSize)
				var seedCtr atomic.Int64
				b.SetParallelism(gs) // × GOMAXPROCS workers
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					seed := seedCtr.Add(1)
					rng := mrand.New(mrand.NewSource(seed))
					zg := mrand.NewZipf(rng, shardBenchZipfS, 1, shardBenchKeys-1)
					for pb.Next() {
						k := zg.Uint64()
						switch rng.Intn(20) {
						case 0: // 5%: atomic in-place compute on a hot key
							zc.ComputeIfPresent(k, func(w oakmap.OakWBuffer) error {
								w.PutUint64At(0, w.Uint64At(0)+1)
								return nil
							})
						case 1, 2, 3: // 15%: put
							zc.Put(k, val)
						default: // 80%: zero-copy get
							if buf := zc.Get(k); buf != nil {
								buf.Read(func([]byte) error { return nil })
							}
						}
					}
				})
			})
		}
	}
}

// BenchmarkShardedScan measures the k-way merge tax: one full ascending
// stream scan over the same data as the point-op grid, per shard count.
// ns/entry is the metric that matters; with 1 shard the backend drives
// the core scan directly (no merge layer).
func BenchmarkShardedScan(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := newShardedBench(b, shards)
			defer m.Close()
			zc := m.ZC()
			b.ReportAllocs()
			b.ResetTimer()
			entries := 0
			for i := 0; i < b.N; i++ {
				zc.AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
					entries++
					return true
				})
			}
			b.StopTimer()
			if entries > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
			}
		})
	}
}
