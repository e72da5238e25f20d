// Package a exercises lockset lock-order: direct AB/BA cycles, cycles closed
// through the call graph, declared-order violations, and same-class
// nesting.
package a

import "sync"

type store struct {
	mu    sync.Mutex
	index sync.Mutex
}

// The classic two-lock deadlock: lockBoth orders mu → index,
// lockBothReversed orders index → mu.
func (s *store) lockBoth() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.Lock() // want `acquiring a.store.index while holding a.store.mu closes a lock-order cycle \{a.store.index, a.store.mu\}`
	defer s.index.Unlock()
}

func (s *store) lockBothReversed() {
	s.index.Lock()
	defer s.index.Unlock()
	s.mu.Lock() // want `acquiring a.store.mu while holding a.store.index closes a lock-order cycle \{a.store.index, a.store.mu\}`
	defer s.mu.Unlock()
}

// A cycle closed through the call graph: lockAuxThenCall holds aux
// and calls helper, which (transitively, through helper2) locks
// inner; lockInnerThenAux holds inner and read-locks aux.
type cache struct {
	aux   sync.RWMutex
	inner sync.Mutex
}

func (c *cache) lockAuxThenCall() {
	c.aux.Lock()
	defer c.aux.Unlock()
	c.helper() // want `acquiring a.cache.inner while holding a.cache.aux closes a lock-order cycle \{a.cache.aux, a.cache.inner\}`
}

func (c *cache) helper() { c.helper2() }

func (c *cache) helper2() {
	c.inner.Lock()
	defer c.inner.Unlock()
}

func (c *cache) lockInnerThenAux() {
	c.inner.Lock()
	defer c.inner.Unlock()
	c.aux.RLock() // want `acquiring a.cache.aux while holding a.cache.inner closes a lock-order cycle \{a.cache.aux, a.cache.inner\}`
	defer c.aux.RUnlock()
}

// Same-class nesting without a declared instance order.
type shard struct {
	mu sync.Mutex
}

func drainPair(x, y *shard) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock() // want `acquiring a.shard.mu while another a.shard.mu is already held: same-class nesting deadlocks`
	defer y.mu.Unlock()
}

// Same-class nesting WITH a declared instance order is fine: ordered
// is locked ascending by id everywhere.
//
//oak:lock-order a.ordered.mu a.ordered.mu
type ordered struct {
	id int
	mu sync.Mutex
}

func drainOrdered(x, y *ordered) {
	if y.id < x.id {
		x, y = y, x
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock()
	defer y.mu.Unlock()
}

// TryLock never blocks, so it cannot close a cycle: reap backs off
// instead of deadlocking.
type reaper struct {
	a sync.Mutex
	b sync.Mutex
}

func (r *reaper) forward() {
	r.a.Lock()
	defer r.a.Unlock()
	r.b.Lock()
	defer r.b.Unlock()
}

func (r *reaper) backoff() {
	r.b.Lock()
	defer r.b.Unlock()
	if !r.a.TryLock() {
		return
	}
	r.a.Unlock()
}

// go-launched work is unordered with the spawner's locks: no edge.
func (r *reaper) spawn() {
	r.a.Lock()
	defer r.a.Unlock()
	go func() {
		r.b.Lock()
		defer r.b.Unlock()
	}()
}
