package oakmap

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// TestLeakGateChurnDrains is the reclamation leak gate: after a
// delete-heavy concurrent churn followed by removing every key and a
// quiesce, the map must hold (almost) no off-heap bytes. With the
// default policy (key reclamation on) KeyLeakBytes must be exactly
// zero and the limbo must drain completely; LiveBytes may retain a
// small tail — dead keys sit in chunk metadata until a rebalance or
// merge visits their chunk, and the head chunk never merges away — but
// that tail is bounded by a few chunks' worth of keys, not by the
// churn volume.
func TestLeakGateChurnDrains(t *testing.T) {
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 64, BlockSize: 1 << 20})
	defer m.Close()
	zc := m.ZC()

	const (
		keySpace = 4096
		workers  = 4
		opsPer   = 50_000
	)
	val := make([]byte, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xC0FFEE))
			v := make([]byte, len(val))
			for i := 0; i < opsPer; i++ {
				k := rng.Uint64N(keySpace)
				switch op := rng.Uint64N(100); {
				case op < 45:
					zc.Put(k, v)
				case op < 90:
					zc.Remove(k)
				default:
					if buf := zc.Get(k); buf != nil {
						buf.Len()
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	for k := uint64(0); k < keySpace; k++ {
		zc.Remove(k)
	}
	// StatsConsistent quiesces and re-reads until the snapshot is stable,
	// so the cross-field assertions below (Len vs LimboItems vs
	// LiveBytes) compare values from one moment rather than a torn read.
	s, ok := m.StatsConsistent()
	if !ok {
		t.Fatal("StatsConsistent failed: limbo did not drain with no readers pinned")
	}
	t.Logf("after drain: len=%d live=%d KeyLeakBytes=%d limboItems=%d limboBytes=%d chunks=%d footprint=%d",
		s.Len, s.LiveBytes, s.KeyLeakBytes, s.LimboItems, s.LimboBytes, s.Chunks, s.Footprint)
	if s.Len != 0 {
		t.Fatalf("Len = %d after removing every key", s.Len)
	}
	if s.KeyLeakBytes != 0 {
		t.Fatalf("KeyLeakBytes = %d with default key reclamation", s.KeyLeakBytes)
	}
	if s.LimboItems != 0 || s.LimboBytes != 0 {
		t.Fatalf("limbo not drained: items=%d bytes=%d", s.LimboItems, s.LimboBytes)
	}
	// Residual live bytes: uncollected dead keys in the surviving
	// chunks. Bound it by a handful of chunks' worth of 8-byte keys
	// (ChunkCapacity 64) — generous, but orders of magnitude below the
	// ~1.6 MB of key space the churn cycled through.
	const liveBound = 16 * 1024
	if s.LiveBytes > liveBound {
		t.Fatalf("LiveBytes = %d after full drain (bound %d): reclamation leak", s.LiveBytes, liveBound)
	}
}

// TestLeakGateSnapshotRetainedDrains is the MVCC arm of the leak gate:
// delete-heavy churn under a rolling window of open snapshots forces
// superseded spans into the retained-version store; once the last
// snapshot closes, that store must drain to EXACTLY zero — retained
// bytes, spans, open count and horizon lag — on both backends. A
// retained span that survives its last observer is the MVCC layer's
// version of a limbo leak, invisible to LiveBytes because the span is
// no longer reachable from the structure.
func TestLeakGateSnapshotRetainedDrains(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(map[int]string{0: "plain", 4: "sharded"}[shards], func(t *testing.T) {
			m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
				&Options{ChunkCapacity: 64, BlockSize: 1 << 20, Shards: shards})
			defer m.Close()
			zc := m.ZC()

			const keySpace = 1024
			val := make([]byte, 64)
			for k := uint64(0); k < keySpace; k++ {
				zc.Put(k, val)
			}

			// Rolling snapshot window: up to 3 snapshots open at once, so
			// the churn below always has an observer to retain for.
			var open []*Snapshot[uint64, []byte]
			rng := rand.New(rand.NewPCG(11, 0x5EED))
			for round := 0; round < 24; round++ {
				open = append(open, m.Snapshot())
				if len(open) > 3 {
					open[0].Close()
					open = open[1:]
				}
				for i := 0; i < 2_000; i++ {
					k := rng.Uint64N(keySpace)
					if rng.Uint64N(100) < 40 {
						zc.Remove(k)
					} else {
						zc.Put(k, val)
					}
				}
			}
			if s := m.Stats(); s.RetainedBytes == 0 || s.RetainedSpans == 0 {
				t.Fatalf("churn retained nothing (%+v): the gate is not exercising the MVCC path", s)
			}
			for _, sn := range open {
				sn.Close()
			}

			s, ok := m.StatsConsistent()
			if !ok {
				t.Fatal("StatsConsistent failed: limbo did not drain with no readers pinned")
			}
			t.Logf("after close: retainedBytes=%d retainedSpans=%d openSnapshots=%d horizonLag=%d limboItems=%d",
				s.RetainedBytes, s.RetainedSpans, s.OpenSnapshots, s.HorizonLag, s.LimboItems)
			if s.OpenSnapshots != 0 || s.RetainedBytes != 0 || s.RetainedSpans != 0 || s.HorizonLag != 0 {
				t.Fatalf("retained-version store did not drain: open=%d bytes=%d spans=%d lag=%d",
					s.OpenSnapshots, s.RetainedBytes, s.RetainedSpans, s.HorizonLag)
			}
			if s.LimboItems != 0 || s.LimboBytes != 0 {
				t.Fatalf("limbo not drained after snapshot close: items=%d bytes=%d", s.LimboItems, s.LimboBytes)
			}
		})
	}
}

// TestLeakGateShardedChurnDrains is the leak gate for the sharded
// front-end: the same delete-heavy churn and full drain, but across 4
// hash-partitioned shards, each with its own arena and epoch domain. The
// gate is per shard, not just in aggregate — KeyLeakBytes must be
// exactly zero and limbo empty on EVERY shard, so a single shard
// leaking cannot hide behind the others' totals.
func TestLeakGateShardedChurnDrains(t *testing.T) {
	const shards = 4
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 64, BlockSize: 1 << 20, Shards: shards})
	defer m.Close()
	zc := m.ZC()

	const (
		keySpace = 4096
		workers  = 4
		opsPer   = 50_000
	)
	val := make([]byte, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xC0FFEE))
			v := make([]byte, len(val))
			for i := 0; i < opsPer; i++ {
				k := rng.Uint64N(keySpace)
				switch op := rng.Uint64N(100); {
				case op < 45:
					zc.Put(k, v)
				case op < 90:
					zc.Remove(k)
				default:
					if buf := zc.Get(k); buf != nil {
						buf.Len()
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	for k := uint64(0); k < keySpace; k++ {
		zc.Remove(k)
	}
	s, ok := m.StatsConsistent()
	if !ok {
		t.Fatal("StatsConsistent failed: some shard's limbo did not drain with no readers pinned")
	}
	if s.Shards != shards {
		t.Fatalf("Stats.Shards = %d, want %d", s.Shards, shards)
	}
	if s.Len != 0 {
		t.Fatalf("Len = %d after removing every key", s.Len)
	}
	per := m.ShardStats()
	if len(per) != shards {
		t.Fatalf("ShardStats returned %d entries, want %d", len(per), shards)
	}
	for i, ss := range per {
		t.Logf("shard %d: len=%d live=%d KeyLeakBytes=%d limboItems=%d limboBytes=%d chunks=%d",
			i, ss.Len, ss.LiveBytes, ss.KeyLeakBytes, ss.LimboItems, ss.LimboBytes, ss.Chunks)
		if ss.KeyLeakBytes != 0 {
			t.Fatalf("shard %d: KeyLeakBytes = %d with default key reclamation", i, ss.KeyLeakBytes)
		}
		if ss.LimboItems != 0 || ss.LimboBytes != 0 {
			t.Fatalf("shard %d: limbo not drained: items=%d bytes=%d", i, ss.LimboItems, ss.LimboBytes)
		}
		// Per-shard residual tail: same chunk-metadata bound as the plain
		// gate; each shard holds its own head chunk.
		const liveBound = 16 * 1024
		if ss.LiveBytes > liveBound {
			t.Fatalf("shard %d: LiveBytes = %d after full drain (bound %d)", i, ss.LiveBytes, liveBound)
		}
	}
}
