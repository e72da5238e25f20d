package sharded

import (
	"oakmap/internal/core"
)

// Snapshot is a consistent point-in-time view across every shard: a
// version vector with one stabilized core snapshot per shard. The
// vector is consistent with respect to atomic batches — verMu orders
// each batch's prepare phase entirely before or entirely after the
// snapshot's begin phase, so the view contains a batch's writes on all
// shards or on none.
type Snapshot struct {
	m    *Map
	vers []uint64
}

// Snapshot acquires a consistent cross-shard snapshot. It must be
// released with Close, or every shard's reclaim horizon stays pinned.
func (m *Map) Snapshot() *Snapshot {
	vers := make([]uint64, len(m.shards))
	m.verMu.Lock()
	for i, s := range m.shards {
		vers[i] = s.BeginSnapshot()
	}
	m.verMu.Unlock()
	// Stabilization (waiting out each shard's undecided batches with base
	// ≤ S) runs outside verMu: it blocks on batch decisions, and batches
	// never wait on snapshots, so holding the ratchet lock here would
	// stall unrelated batches for no correctness gain.
	for i, s := range m.shards {
		s.StabilizeSnapshot(vers[i])
	}
	return &Snapshot{m: m, vers: vers}
}

// Close releases the snapshot on every shard, letting the reclaim
// horizons advance and retained pre-images drain.
func (sn *Snapshot) Close() {
	for i, s := range sn.m.shards {
		s.EndSnapshot(sn.vers[i])
	}
}

// Versions exposes the snapshot's per-shard version vector (index-
// aligned with Shards), for stats and diagnostics.
func (sn *Snapshot) Versions() []uint64 { return sn.vers }

// Get resolves key in the frozen view, appending the value to dst.
func (sn *Snapshot) Get(key, dst []byte) ([]byte, bool) {
	i := sn.m.ShardIndex(key)
	return sn.m.shards[i].SnapGet(sn.vers[i], key, dst)
}

// NewCursor opens a merged cursor over the frozen view for lo ≤ key < hi
// (nil bounds open), descending when desc is set: the same loser tree as
// a live scan, over one frozen core.Cursor per shard at that shard's
// version. Read values with Cursor.Val. The snapshot must stay open for
// the cursor's lifetime.
func (sn *Snapshot) NewCursor(lo, hi []byte, desc bool) *Cursor {
	return sn.m.merge(lo, hi, desc, sn.vers)
}

// ApplyBatch applies ops atomically across shards: ops are deduped
// (last wins), partitioned, and installed shard-by-shard in index order
// (key order within each shard) under one shared batch descriptor, so
// readers and snapshots observe all of the batch or none — on any shard.
func (m *Map) ApplyBatch(ops []core.BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	norm := core.NormalizeBatch(ops)
	perShard := make([][]core.BatchOp, len(m.shards))
	for _, op := range norm {
		i := m.ShardIndex(op.Key)
		perShard[i] = append(perShard[i], op)
	}
	desc := core.NewBatchDesc()
	bis := make([]*core.BatchInstall, len(m.shards))
	m.verMu.Lock()
	for i, s := range m.shards {
		if len(perShard[i]) > 0 {
			bis[i] = s.PrepareBatch(desc)
		}
	}
	m.verMu.Unlock()
	// RunBatch installs in a global total order (shard index, then key),
	// so two batches waiting on each other's flagged values cannot cycle;
	// its commit is the batch's cross-shard linearization point.
	return core.RunBatch(desc, bis, perShard)
}
