// Package sharded hash-partitions an Oak map across N independent core
// maps. Each shard is a complete Oak instance — its own arena allocator,
// epoch-reclamation domain, chunk list and chunk index — so point
// operations on different shards never share a mutable cache line, and a
// rebalance or reclamation stall in one shard cannot block the others.
//
// Point operations (Get / Put / PutIfAbsent / Remove / ComputeIfPresent)
// route to exactly one shard by a stable hash of the serialized key.
// Ordered scans see the union: per-shard cursors are merged through a
// loser-tree k-way merge (merge.go) that yields the globally smallest
// (or largest) head, so Ascend/Descend remain globally sorted and
// duplicate-free even though keys are scattered by hash. Because every
// per-shard step pins only that shard's epoch domain for its own
// duration, a long merged scan never holds any pin while parked —
// reclamation limbo stays bounded per shard, not per scan.
//
// The package works below (de)serialization, like internal/core; the
// generic facade in package oakmap selects it via Options.Shards.
package sharded

import (
	"bytes"
	"sync"

	"oakmap/internal/core"
	"oakmap/internal/faultpoint"
)

// Fault-injection points on the sharding layer (no-ops unless armed).
var (
	// FpRoute is hit on every key-routing decision, before the shard is
	// chosen: a pausing hook widens the window between routing and the
	// routed operation so cross-shard races (e.g. a scan overtaking a
	// writer mid-route) get exercised.
	FpRoute = faultpoint.New("shard/route")
	// FpScanRotate is hit each time a merged scan's winner moves to a
	// different shard — the moment the scan's attention (and pin
	// cycling) rotates across shard boundaries, where skipped or
	// duplicated keys would appear if resume positions were wrong.
	FpScanRotate = faultpoint.New("shard/scan-rotate")
)

// Map is a hash-sharded collection of core Oak maps.
type Map struct {
	shards []*core.Map

	// merges recycles the merged cursors of push scans (Ascend, Descend)
	// between scans, so a scan over several shards allocates no merge
	// state in steady state.
	merges sync.Pool

	// verMu serializes the clock-ratchet phase of cross-shard batches
	// (PrepareBatch on every involved shard) against the begin phase of
	// cross-shard snapshots (BeginSnapshot on every shard). With both
	// phases atomic relative to each other, any batch/snapshot pair is
	// ordered the same way on every shard — a snapshot can never see a
	// batch's writes on one shard but not another (a torn cross-shard
	// batch). Only these short ratchet phases are serialized; installs,
	// commits, and scans all run outside the lock.
	//
	// Lock-order contract, verified by oak-vet/lockset: the ratchet
	// lock is taken before any shard-local MVCC lock (BeginSnapshot's
	// mvccState.mu, PrepareBatch's mvccState.pendMu), never inside one.
	//
	//oak:lock-order sharded.Map.verMu core.mvccState.mu
	//oak:lock-order sharded.Map.verMu core.mvccState.pendMu
	verMu sync.Mutex
}

// New builds n shards from opts (n < 1 is treated as 1). Each shard gets
// its own core.New call — and therefore its own allocator and epoch
// domain — from the same options; a shared Options.Pool is safe (shards
// draw blocks from it independently) and keeps the off-heap budget
// global.
func New(n int, opts *core.Options) *Map {
	if n < 1 {
		n = 1
	}
	m := &Map{shards: make([]*core.Map, n)}
	for i := range m.shards {
		m.shards[i] = core.New(opts)
	}
	return m
}

// routeHash is FNV-1a 64 with a finalizing fold so the low bits used by
// the modulus mix in the high ones. It is deliberately unseeded: routing
// must be stable across processes and runs (the fuzz corpus and stress
// validators depend on a key always landing on the same shard for a
// given shard count).
func routeHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 32
	return h
}

// ShardIndex returns the index of the shard owning key. A single shard
// owns every key: there is no routing decision, so nothing is hashed.
func (m *Map) ShardIndex(key []byte) int {
	if len(m.shards) == 1 {
		return 0
	}
	FpRoute.Fire()
	return int(routeHash(key) % uint64(len(m.shards)))
}

// ShardFor returns the shard owning key.
func (m *Map) ShardFor(key []byte) *core.Map {
	return m.shards[m.ShardIndex(key)]
}

// Shards exposes the underlying core maps (index-stable), for stats
// rollup, quiescing, and per-shard assertions in tests. Callers must not
// close individual shards.
func (m *Map) Shards() []*core.Map { return m.shards }

// NumShards returns the shard count.
func (m *Map) NumShards() int { return len(m.shards) }

// Point operations: one hash, one shard, then exactly the core protocol.

// Get returns the live value handle for key, if present. The handle is
// only meaningful against the owning shard — pair it with ShardFor(key)
// (or use the Entry-returning navigation queries).
func (m *Map) Get(key []byte) (core.ValueHandle, bool) {
	return m.ShardFor(key).Get(key)
}

// Put unconditionally associates key with val.
func (m *Map) Put(key, val []byte) error {
	return m.ShardFor(key).Put(key, val)
}

// PutIfAbsent inserts iff the key is absent; reports whether it inserted.
func (m *Map) PutIfAbsent(key, val []byte) (bool, error) {
	return m.ShardFor(key).PutIfAbsent(key, val)
}

// Remove deletes the mapping; reports whether the key was present.
func (m *Map) Remove(key []byte) (bool, error) {
	return m.ShardFor(key).Remove(key)
}

// ComputeIfPresent runs f atomically on the present value.
func (m *Map) ComputeIfPresent(key []byte, f func(*core.WBuffer) error) (bool, error) {
	return m.ShardFor(key).ComputeIfPresent(key, f)
}

// PutIfAbsentComputeIfPresent inserts val or atomically updates with f.
func (m *Map) PutIfAbsentComputeIfPresent(key, val []byte, f func(*core.WBuffer) error) error {
	return m.ShardFor(key).PutIfAbsentComputeIfPresent(key, val, f)
}

// Len sums the shard sizes. Like core.Map.Len it is a moment-in-time
// figure under concurrency — each shard's count is read independently.
func (m *Map) Len() int {
	n := 0
	for _, s := range m.shards {
		n += s.Len()
	}
	return n
}

// Close closes every shard.
func (m *Map) Close() {
	for _, s := range m.shards {
		s.Close()
	}
}

// Quiesce drives every shard's epoch domain until its limbo lists drain
// (or a shard reports it cannot). Reports whether all shards drained.
func (m *Map) Quiesce() bool {
	ok := true
	for _, s := range m.shards {
		if !s.QuiesceReclaim() {
			ok = false
		}
	}
	return ok
}

// reduceNav runs the navigation query q(shard, k) against every shard and
// keeps the smallest (or, with wantMax, the greatest) key found. Each
// shard's answer is a key copied under the pin that found it live, so the
// reduction compares owned bytes and needs no re-query. Ties are
// impossible: shards partition the key space.
func (m *Map) reduceNav(q func(*core.Map, []byte) ([]byte, bool), k []byte, wantMax bool) (best []byte, found bool) {
	for _, s := range m.shards {
		key, ok := q(s, k)
		if !ok {
			continue
		}
		if c := bytes.Compare(key, best); !found || wantMax && c > 0 || !wantMax && c < 0 {
			best, found = key, true
		}
	}
	return best, found
}

// First returns the globally smallest key (the ceiling of the open
// bound).
func (m *Map) First() ([]byte, bool) { return m.reduceNav((*core.Map).Ceiling, nil, false) }

// Last returns the globally largest key (the key below the open bound).
func (m *Map) Last() ([]byte, bool) { return m.reduceNav((*core.Map).Lower, nil, true) }

// Floor returns the largest key ≤ k.
func (m *Map) Floor(k []byte) ([]byte, bool) { return m.reduceNav((*core.Map).Floor, k, true) }

// Ceiling returns the smallest key ≥ k.
func (m *Map) Ceiling(k []byte) ([]byte, bool) { return m.reduceNav((*core.Map).Ceiling, k, false) }

// Lower returns the largest key < k.
func (m *Map) Lower(k []byte) ([]byte, bool) { return m.reduceNav((*core.Map).Lower, k, true) }

// Higher returns the smallest key > k.
func (m *Map) Higher(k []byte) ([]byte, bool) { return m.reduceNav((*core.Map).Higher, k, false) }
