package oakmap_test

// MVCC overhead grid (EXPERIMENTS.md "MVCC overhead"): what Snapshot
// support costs the hot paths. The contract is that the zero-open-snapshot
// case is (near) free — a Put adds one clock load and one
// retain-floor load, a Get adds nothing — and that cost appears only
// when a snapshot is actually open, proportional to the churn it
// forces into the retained store. ApplyBatch amortization and the
// snapshot read/scan paths round out the grid.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"oakmap"
)

func mvccBenchMap(b *testing.B, shards int) (*oakmap.Map[uint64, []byte], oakmap.ZeroCopyMap[uint64, []byte]) {
	b.Helper()
	m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{BlockSize: 8 << 20, Shards: shards})
	b.Cleanup(m.Close)
	zc := m.ZC()
	val := make([]byte, benchValueSize)
	for k := uint64(0); k < benchKeyRange; k++ {
		if err := zc.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	return m, zc
}

// holdSnapshots opens n idle snapshots for the benchmark's duration.
func holdSnapshots(b *testing.B, m *oakmap.Map[uint64, []byte], n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		sn := m.Snapshot()
		b.Cleanup(sn.Close)
	}
}

// BenchmarkMVCCGet: live zero-copy reads with 0/1/4 idle snapshots
// open. Reads never touch the MVCC layer, so the columns should be
// indistinguishable.
func BenchmarkMVCCGet(b *testing.B) {
	for _, open := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("open=%d", open), func(b *testing.B) {
			m, zc := mvccBenchMap(b, 0)
			holdSnapshots(b, m, open)
			rng := rand.New(rand.NewPCG(1, 2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf := zc.Get(rng.Uint64() % benchKeyRange); buf != nil {
					buf.Len()
				}
			}
		})
	}
}

// BenchmarkMVCCPut: overwrites with 0/1/4 idle snapshots open. With
// open snapshots, the first overwrite of each key retains its
// pre-image (copy-on-write); later overwrites of the same key are
// newer than the horizon and pay only the two-load gate.
func BenchmarkMVCCPut(b *testing.B) {
	for _, open := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("open=%d", open), func(b *testing.B) {
			m, zc := mvccBenchMap(b, 0)
			holdSnapshots(b, m, open)
			rng := rand.New(rand.NewPCG(3, 4))
			val := make([]byte, benchValueSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := zc.Put(rng.Uint64()%benchKeyRange, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMVCCShardedGet: the same read gate through the sharded
// front-end (router + per-shard MVCC state).
func BenchmarkMVCCShardedGet(b *testing.B) {
	for _, open := range []int{0, 1} {
		b.Run(fmt.Sprintf("open=%d", open), func(b *testing.B) {
			m, zc := mvccBenchMap(b, 4)
			holdSnapshots(b, m, open)
			rng := rand.New(rand.NewPCG(5, 6))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf := zc.Get(rng.Uint64() % benchKeyRange); buf != nil {
					buf.Len()
				}
			}
		})
	}
}

// BenchmarkMVCCSnapshotGet: point reads THROUGH a snapshot — the
// version-resolving read path (structure probe + retained-chain
// check), not the live one.
func BenchmarkMVCCSnapshotGet(b *testing.B) {
	m, _ := mvccBenchMap(b, 0)
	sn := m.Snapshot()
	b.Cleanup(sn.Close)
	rng := rand.New(rand.NewPCG(7, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Get(rng.Uint64() % benchKeyRange)
	}
}

// BenchmarkMVCCApplyBatch: one atomic batch per iteration; the
// ns/entry metric divides the batch out. Compare against
// BenchmarkMVCCPut/open=0 for the per-entry amortization.
func BenchmarkMVCCApplyBatch(b *testing.B) {
	for _, size := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			m, _ := mvccBenchMap(b, 0)
			val := make([]byte, benchValueSize)
			ops := make([]oakmap.Op[uint64, []byte], size)
			rng := rand.New(rand.NewPCG(9, 10))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					ops[j] = oakmap.Op[uint64, []byte]{Key: rng.Uint64() % benchKeyRange, Value: val}
				}
				if err := m.ApplyBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/entry")
		})
	}
}

// BenchmarkMVCCSnapshotScan: a 1000-entry ordered scan through a
// snapshot vs the live Range scan. Both walk the same cursor; the delta
// is the frozen cursor's per-entry resolution at the snapshot's version
// (a version check and a value copy under the header read lock) and the
// one-leaf merge a snapshot scan runs through.
func BenchmarkMVCCSnapshotScan(b *testing.B) {
	const scanLen = 1000
	b.Run("snapshot", func(b *testing.B) {
		m, _ := mvccBenchMap(b, 0)
		sn := m.Snapshot()
		b.Cleanup(sn.Close)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			sn.Ascend(nil, nil, func(_ uint64, _ []byte) bool {
				n++
				return n < scanLen
			})
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*scanLen), "ns/entry")
	})
	b.Run("live", func(b *testing.B) {
		m, _ := mvccBenchMap(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			m.Range(nil, nil, func(_ uint64, _ []byte) bool {
				n++
				return n < scanLen
			})
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*scanLen), "ns/entry")
	})
}
