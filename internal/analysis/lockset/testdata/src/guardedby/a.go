// Package a exercises lockset's guarded-by rule: lock modes,
// TryLock, the *Locked convention, and annotation error reporting.
package a

import (
	"sort"
	"sync"
	"sync/atomic"
)

type registry struct {
	mu     sync.RWMutex
	pendMu sync.Mutex

	open  []uint64          //oak:guarded-by mu
	byKey map[string]int    //oak:guarded-by mu
	clock atomic.Uint64     //oak:guarded-by mu,pendMu
	count int               //oak:guarded-by pendMu
}

// good: write lock held for writes, released by defer.
func (r *registry) insert(k string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byKey[k] = v
	r.open = append(r.open, uint64(v))
}

// good: read lock suffices for reads, including inside a synchronous
// closure (the sort.Search idiom).
func (r *registry) find(x uint64) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sort.Search(len(r.open), func(i int) bool { return r.open[i] >= x })
}

// bad: no lock at all.
func (r *registry) leakRead() int {
	return len(r.open) // want `read of a.registry.open without a.registry.mu held`
}

// bad: mutating under a read lock.
func (r *registry) rlockWrite(k string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	delete(r.byKey, k) // want `write to a.registry.byKey under a read lock`
}

// bad: unlocked map delete is a write.
func (r *registry) unlockedDelete(k string) {
	delete(r.byKey, k) // want `write to a.registry.byKey without a.registry.mu held`
}

// good: either-of guards — the clock may ratchet under pendMu alone.
func (r *registry) ratchet() uint64 {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	return r.clock.Add(2)
}

// Seeded regression (PR-8 shape): PrepareBatch originally ratcheted
// the version clock BEFORE taking pendMu, so a concurrent
// snapshot-begin could observe the new version with no pending batch
// registered for it.
func (r *registry) prepareRacy() uint64 {
	base := r.clock.Add(2) // want `clock.Add on a.registry.clock without a.registry.mu or a.registry.pendMu held`
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	r.count++
	return base
}

// good: atomic Load needs no lock.
func (r *registry) now() uint64 {
	return r.clock.Load()
}

// good: the TryLock fall-through holds the lock.
func (r *registry) tryBump() {
	if !r.pendMu.TryLock() {
		return
	}
	defer r.pendMu.Unlock()
	r.count++
}

// bad: the TryLock failure branch does NOT hold the lock.
func (r *registry) tryBumpWrong() {
	if r.pendMu.TryLock() {
		defer r.pendMu.Unlock()
		return
	}
	r.count++ // want `write to a.registry.count without a.registry.pendMu held`
}

// bad: an if/else join where only one branch locked.
func (r *registry) halfGuard(b bool) {
	if b {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.open = r.open[:0] // want `write to a.registry.open without a.registry.mu held` `read of a.registry.open without a.registry.mu held`
}

// good: early-unlock-return idiom.
func (r *registry) earlyOut(k string) int {
	r.mu.Lock()
	if v, ok := r.byKey[k]; ok {
		r.mu.Unlock()
		return v
	}
	r.mu.Unlock()
	return -1
}

// bad: access after the unlock.
func (r *registry) useAfterUnlock(k string) int {
	r.mu.Lock()
	r.mu.Unlock()
	return r.byKey[k] // want `read of a.registry.byKey without a.registry.mu held`
}

// sweepLocked is exempt inside (caller holds mu)…
func (r *registry) sweepLocked() {
	r.open = r.open[:0]
	for k := range r.byKey {
		delete(r.byKey, k)
	}
}

// good: *Locked called under the lock.
func (r *registry) sweep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
}

// bad: *Locked called with nothing held.
func (r *registry) sweepRacy() {
	r.sweepLocked() // want `sweepLocked called without any lock held`
}

// good: a goroutine body starts with an empty held set and locks for
// itself.
func (r *registry) spawn() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.open = nil
	}()
	r.open = append(r.open, 1)
}

// bad: the goroutine inherits nothing from the spawner's lock.
func (r *registry) spawnRacy() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		r.open = nil // want `write to a.registry.open without a.registry.mu held`
	}()
}

// good: constructor composite-literal keys are initialization, not
// access; init is exempt by name.
func newRegistry() *registry {
	return &registry{
		open:  nil,
		byKey: map[string]int{},
	}
}

var defaultRegistry *registry

func init() {
	defaultRegistry = &registry{}
	defaultRegistry.byKey = map[string]int{}
}

// Suppression with rationale: single-installer invariant — only the
// goroutine that created this registry mutates it before publication.
func (r *registry) prePublish() {
	r.open = append(r.open, 0) //oak:allow lockset pre-publication, single-installer
	_ = r.open                 //oak:allow lockset pre-publication, single-installer
}

// bad: a switch without a default may match no case, so a lock every
// case takes is still not certainly held after it.
func (r *registry) switchNoDefault(k int) {
	switch k {
	case 0:
		r.mu.Lock()
	case 1:
		r.mu.Lock()
	}
	r.open = nil // want `write to a.registry.open without a.registry.mu held`
	r.mu.Unlock()
}
