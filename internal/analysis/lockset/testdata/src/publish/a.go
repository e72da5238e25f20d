// Package a exercises lockset publish-before with the three historical
// regression shapes: PR 8's floor-after-ratchet, PR 3's
// drain-after-publish, and the batch descriptor's commit word.
package a

import (
	"sync"
	"sync/atomic"
)

// mvcc mirrors the real mvccState: the retention floor must be raised
// before the snapshot clock ratchets, or a concurrent sweep reclaims
// versions the new snapshot is about to read.
type mvcc struct {
	mu         sync.Mutex
	clock      atomic.Uint64
	retainFloor atomic.Uint64 //oak:publish-before clock
}

// good: the real post-fix BeginSnapshot shape — conditional floor
// raise inside the CAS loop, before the ratchet.
func (m *mvcc) beginSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		c := m.clock.Load()
		if m.retainFloor.Load() < c+1 {
			m.retainFloor.Store(c + 1)
		}
		if m.clock.CompareAndSwap(c, c+1) {
			return c + 1
		}
	}
}

// Seeded regression (PR-8 shape): the clock ratchets FIRST, so a
// sweep between the CAS and the floor store sees the old floor and
// reclaims the snapshot's versions.
func (m *mvcc) beginSnapshotRacy() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		c := m.clock.Load()
		if m.clock.CompareAndSwap(c, c+1) { // want `a.mvcc.clock published before a.mvcc.retainFloor is written`
			m.retainFloor.Store(c + 1)
			return c + 1
		}
	}
}

// good: publish-only functions are outside the contract — the floor
// belongs to begin/end, the ratchet alone is someone else's protocol.
func (m *mvcc) prepareBatch() uint64 {
	return m.clock.Add(2) - 1
}

// epoch mirrors the real Domain: the limbo bucket must drain before
// the global epoch CAS publishes the new epoch, or a racing Retire
// appends to a bucket already considered drained.
type epoch struct {
	global atomic.Uint64
	items  []int //oak:publish-before global
}

func (e *epoch) drainBucket() {
	e.items = e.items[:0]
}

// good: the post-fix advance shape — drain through the helper, then
// publish.
func (e *epoch) advance(cur uint64) bool {
	e.drainBucket()
	return e.global.CompareAndSwap(cur, cur+1)
}

// Seeded regression (PR-3 shape): CAS first, drain after. The write
// reaches the analyzer through the helper's transitive summary.
func (e *epoch) advanceRacy(cur uint64) bool {
	ok := e.global.CompareAndSwap(cur, cur+1) // want `a.epoch.global published before a.epoch.items is written`
	e.drainBucket()
	return ok
}

// desc mirrors BatchDesc: waiters woken by close(done) must observe
// the final state word.
type desc struct {
	state atomic.Uint32 //oak:publish-before done
	done  chan struct{}
}

// good: state is stored before the wakeup publishes it.
func (d *desc) commit() {
	d.state.Store(2)
	close(d.done)
}

// Seeded regression: waiters wake and read a stale state.
func (d *desc) commitRacy() {
	close(d.done) // want `a.desc.done published before a.desc.state is written`
	d.state.Store(2)
}

// bad: a deferred write binds the function to the contract but runs
// only after the publish has already woken the waiters.
func (d *desc) commitDeferred() {
	defer d.state.Store(2)
	close(d.done) // want `a.desc.done published before a.desc.state is written`
}
