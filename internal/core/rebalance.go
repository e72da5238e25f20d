package core

import (
	"context"
	"runtime/pprof"

	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/faultpoint"
	"oakmap/internal/telemetry"
)

// Fault-injection pause points marking the rebalance danger windows
// (no-ops unless a test arms them). All three are hit with the chunk
// locks held, so a gate hook parks the rebalancer mid-operation while
// readers — which never block on rebalances — are let loose on it.
var (
	// FpRebalanceFreeze: the chunk is frozen (updates bounce) but still
	// the only copy of its range — readers must serve from frozen data.
	FpRebalanceFreeze = faultpoint.New("core/rebalance-freeze")
	// FpRebalanceSplit: replacement chunks are built and chained but not
	// yet published — the retired chunk is still the visible one.
	FpRebalanceSplit = faultpoint.New("core/rebalance-split")
	// FpRebalanceIndex: the new chain is spliced and forwarding is up,
	// but not yet in the index array, whose entries for the range still
	// point at retired chunks — lookups must recover via ReplacedBy
	// forwarding.
	FpRebalanceIndex = faultpoint.New("core/rebalance-index")
)

// maybeRebalance applies the paper's trigger policy after an insertion:
// rebalance when the unsorted suffix of the entries array outgrows the
// sorted prefix by the configured ratio (§5.1: "whenever the unsorted
// linked list exceeds half of the sorted prefix").
func (m *Map) maybeRebalance(c *chunk.Chunk) {
	if m.shouldRebalance(c) {
		m.rebalance(c)
	}
}

// maybeMerge applies the under-utilization trigger after a removal: a
// chunk whose live count dropped below capacity/8 is rebalanced, which
// merges it with its successor (§4.1: rebalance "merges chunks when they
// are under-used"). The head chunk with no successor is left alone — an
// empty map needs one chunk anyway.
func (m *Map) maybeMerge(c *chunk.Chunk) {
	c = chunk.Forward(c)
	if c.Next() == nil {
		return
	}
	if c.Live() > 0 && c.Live() >= c.Capacity()/8 {
		return
	}
	if c.Allocated() == 0 && c.Live() <= 0 {
		// Fresh empty chunk produced by a recent merge: leave it; a
		// rebalance would just recreate it.
		return
	}
	m.rebalance(c)
}

// shouldRebalance applies the paper's trigger: rebalance "whenever the
// unsorted linked list exceeds half of the sorted prefix", with the
// prefix floored at Capacity/8.
func (m *Map) shouldRebalance(c *chunk.Chunk) bool {
	alloc := c.Allocated()
	if alloc >= c.Capacity() {
		return true
	}
	sorted := c.SortedCount()
	base := sorted
	if min := c.Capacity() / 8; base < min {
		base = min // fresh/empty chunks tolerate a small unsorted run
	}
	return alloc-sorted > base/2
}

// rebalance replaces chunk c (and possibly its successor, when merging)
// with freshly built chunks whose prefixes are fully sorted (§4.1). The
// rebalancer:
//
//  1. locates and locks c's predecessor, then c (in list order, so
//     concurrent rebalances cannot deadlock), validating liveness after
//     each acquisition;
//  2. freezes c, draining published updates — after which no entry's
//     value reference can change;
//  3. gathers the live entries in ascending order (RB3) and optionally
//     freezes and gathers the successor for a merge;
//  4. builds replacement chunks of at most capacity/2 live entries each,
//     links them, points the retired chunks' replacedBy at the new chain,
//     and splices the chain in place of the retired chunks;
//  5. publishes a new index array for the rebalanced range (lazily
//     consistent: traversals forward through replacedBy until the index
//     catches up).
//
// The guarantees RB1–RB3 hold: frozen chunks retain their data for
// concurrent readers, the new chain covers exactly the retired range, and
// gathered sequences are sorted and deduplicated by construction.
func (m *Map) rebalance(c *chunk.Chunk) {
	for attempt := 0; ; attempt++ {
		retryPause(attempt)
		c = chunk.Forward(c)
		if c.ReplacedBy() != nil {
			return
		}

		// Locate the predecessor through the index (nil when c is the head
		// chunk); the validation below catches a stale answer.
		pred := m.prevChunk(c.MinKey())

		// Lock in list order: pred, then c.
		if pred != nil {
			pred.RebalanceMu.Lock()
		}
		c.RebalanceMu.Lock()
		valid := c.ReplacedBy() == nil
		if pred == nil {
			valid = valid && m.head.Load() == c
		} else {
			valid = valid && pred.ReplacedBy() == nil && pred.Next() == c
		}
		if !valid {
			c.RebalanceMu.Unlock()
			if pred != nil {
				pred.RebalanceMu.Unlock()
			}
			continue
		}

		m.rebalanceLocked(pred, c)

		c.RebalanceMu.Unlock()
		if pred != nil {
			pred.RebalanceMu.Unlock()
		}
		return
	}
}

// rebalanceLocked performs steps 2–5 with pred (optional) and c locked.
// With telemetry attached it wraps the work in an OpRebalance span,
// begin/end flight-recorder events, and a pprof label so CPU profiles
// attribute rebalance work to the background activity rather than to
// whichever operation tripped the trigger.
func (m *Map) rebalanceLocked(pred, c *chunk.Chunk) {
	if m.tel == nil {
		m.rebalanceBody(pred, c)
		return
	}
	tick := m.tel.Span(telemetry.OpRebalance)
	m.tel.Event(telemetry.EvRebalanceBegin, uint64(c.Live()), 0, 0)
	var retired, produced, migrated int
	pprof.Do(context.Background(), pprof.Labels("oak", "rebalance"), func(context.Context) {
		retired, produced, migrated = m.rebalanceBody(pred, c)
	})
	tick.Done()
	m.tel.Event(telemetry.EvRebalanceEnd, uint64(retired), uint64(produced), uint64(migrated))
}

// rebalanceBody is rebalanceLocked's uninstrumented work; it reports
// the chunks retired, the chunks produced, and the live entries
// migrated into the replacement chain.
func (m *Map) rebalanceBody(pred, c *chunk.Chunk) (retired, produced, migrated int) {
	m.rebalances.Add(1)

	c.Freeze()
	FpRebalanceFreeze.Fire()
	live, deadKeys, deadHs := m.gather(c)

	// Merge policy: when c is under-utilized, absorb the successor.
	// Holding c's lock keeps c.Next() stable (a successor's rebalance
	// must lock its predecessor — c — first).
	last := c // last retired chunk
	second := (*chunk.Chunk)(nil)
	if len(live) < c.Capacity()/4 {
		if n := c.Next(); n != nil && n.ReplacedBy() == nil {
			n.RebalanceMu.Lock()
			if n.ReplacedBy() == nil && c.Next() == n {
				n.Freeze()
				live2, dk2, dh2 := m.gather(n)
				live = append(live, live2...)
				deadKeys = append(deadKeys, dk2...)
				deadHs = append(deadHs, dh2...)
				second = n
				last = n
			} else {
				n.RebalanceMu.Unlock()
				second = nil
			}
		}
	}

	// Build the replacement chain: chunks of at most capacity/2 entries,
	// leaving headroom for future inserts.
	per := c.Capacity() / 2
	if per < 1 {
		per = 1
	}
	var outs []*chunk.Chunk
	for i := 0; i < len(live); i += per {
		end := i + per
		if end > len(live) {
			end = len(live)
		}
		part := live[i:end]
		var minKey []byte
		if i == 0 {
			minKey = c.MinKey() // the first replacement inherits c's range start
		} else {
			// Later replacements are keyed by their first entry. Clone
			// to the heap: chunk metadata must not alias arena space.
			kb := m.alloc.Bytes(arena.Ref(part[0].KeyRef))
			minKey = append([]byte(nil), kb...)
		}
		outs = append(outs, chunk.NewSorted(minKey, c.Capacity(), m.alloc, nil, part))
	}
	if len(outs) == 0 {
		// Everything is dead: the range still needs a (now empty) chunk.
		outs = append(outs, chunk.New(c.MinKey(), c.Capacity(), m.alloc, nil))
	}

	// Chain the replacements and attach the tail.
	tail := last.Next()
	for i := 0; i+1 < len(outs); i++ {
		outs[i].SetNext(outs[i+1])
	}
	outs[len(outs)-1].SetNext(tail)

	FpRebalanceSplit.Fire()

	// Publish forwarding, then splice. Readers holding retired chunks
	// keep reading their frozen data; re-located operations forward.
	c.SetReplacedBy(outs[0])
	if second != nil {
		second.SetReplacedBy(outs[0])
	}
	if pred == nil {
		m.head.Store(outs[0])
	} else {
		pred.SetNext(outs[0])
	}

	FpRebalanceIndex.Fire()

	// The retired range is [c.MinKey(), tail.MinKey()). Holding pred's
	// lock keeps its start in place while the publisher walks it: no merge
	// can absorb outs[0] into pred. Rebalances of the new chunks, or of
	// tail, may run meanwhile; each publishes its own range after it.
	var hi []byte
	if tail != nil {
		hi = tail.MinKey()
	}
	m.publishIndex(outs[0], c.MinKey(), hi)
	if second != nil {
		second.RebalanceMu.Unlock()
	}

	// Retire dead keys and the headers of dropped deleted values through
	// the epoch domain: the retired chunks are already unlinked
	// (forwarding is up), so no scan that pins after this point can reach
	// them, and scans pinned before it keep the key bytes and header
	// slots alive until they unpin. The dropped chunks' entry arrays
	// themselves are on-heap and go to the GC with the chunk objects.
	for _, kr := range deadKeys {
		m.retire(arena.Ref(kr))
	}
	for _, h := range deadHs {
		m.retireHeader(h)
	}
	retired = 1
	if second != nil {
		retired = 2
	}
	return retired, len(outs), len(live)
}

// gather collects the frozen chunk c's pairs for its replacements. A pair
// whose value is deleted is dropped — its key joins deadKeys and its
// handle deadHs — unless an open snapshot can still see the key
// (keepDeleted). The frozen chunk's entries no longer change, and its
// keys and headers stay valid until this rebalance retires them.
func (m *Map) gather(c *chunk.Chunk) (live []chunk.Pair, deadKeys []uint64, deadHs []ValueHandle) {
	pairs, deadKeys := c.Gather()
	live = pairs[:0]
	for _, p := range pairs {
		h := ValueHandle(p.ValHandle)
		if m.IsDeleted(h) && !m.keepDeleted(m.KeyBytes(p.KeyRef)) {
			deadKeys = append(deadKeys, p.KeyRef)
			deadHs = append(deadHs, h)
			continue
		}
		live = append(live, p)
	}
	return live, deadKeys, deadHs
}

// freeKey returns a key's off-heap space to the allocator immediately
// (only for keys that were never linked: no reader can hold them).
func (m *Map) freeKey(keyRef uint64) {
	m.alloc.Free(arena.Ref(keyRef))
}
