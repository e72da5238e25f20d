package telemetry

import (
	"sync/atomic"
	"time"
)

// EventKind tags one structural event in the flight recorder.
type EventKind uint8

const (
	EvRebalanceBegin EventKind = iota // a: heuristic live entries in the engaged chunk
	EvRebalanceEnd                    // a: chunks retired, b: chunks produced, c: entries migrated
	EvEpochAdvance                    // a: new epoch
	EvLimboDrain                      // a: items drained, b: bytes drained
	EvBlockGrow                       // a: new block count, b: block size bytes
	EvBlockRetain                     // a: pooled blocks after retain
	EvClassMigrate                    // a: migrated span length in bytes
	numEventKinds
)

var eventNames = [numEventKinds]string{
	"rebalance_begin", "rebalance_end", "epoch_advance", "limbo_drain",
	"block_grow", "block_retain", "class_migrate",
}

// String returns the event kind's exporter-facing name.
func (k EventKind) String() string {
	if k < numEventKinds {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder entry. A, B, C are kind-specific
// arguments (see the EventKind constants).
type Event struct {
	Seq      uint64 // 1-based global sequence number
	UnixNano int64  // wall-clock timestamp
	Kind     EventKind
	A, B, C  uint64
}

// cell is one ring slot. marker is 0 when empty, ticket<<1|1 while a
// writer owns the cell, and ticket<<1 once published; every field is
// atomic so the concurrent Dump required by the flight-recorder tests
// is race-clean without any lock on the write path.
// The payload words must be in place before the even (published) marker
// value becomes visible, or Dump could return a torn event that passes
// its marker re-check. The odd claim store in Append precedes the
// payload by design (it is what invalidates concurrent readers) and is
// suppressed at the site.
type cell struct {
	marker  atomic.Uint64
	timeNs  atomic.Int64  //oak:publish-before marker
	kind    atomic.Uint32 //oak:publish-before marker
	a, b, c atomic.Uint64 //oak:publish-before marker
}

// Ring is a bounded lock-free flight recorder. Writers claim a ticket
// with one atomic add and publish into the ticket's slot; the newest
// `size` events survive, older ones are overwritten. Dump skips cells
// that are mid-write or already lapped — under pathological races
// (two writers exactly one full ring apart interleaving on one cell) an
// event can be dropped from a dump, never garbled: the marker is
// re-checked after the payload loads, seqlock-style.
type Ring struct {
	mask  uint64
	next  atomic.Uint64 // last issued ticket; tickets start at 1
	cells []cell
}

// NewRing creates a ring holding the last `size` events, rounded up to
// a power of two (minimum 8).
func NewRing(size int) *Ring {
	n := 8
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), cells: make([]cell, n)}
}

// Append records one event.
func (r *Ring) Append(kind EventKind, a, b, c uint64) {
	t := r.next.Add(1)
	cl := &r.cells[(t-1)&r.mask]
	// Seqlock claim: the odd marker must go first — it is what tells a
	// concurrent Dump the payload is mid-write. Only the closing even
	// store is a publish in the //oak:publish-before sense.
	cl.marker.Store(t<<1 | 1) //oak:allow lockset seqlock claim store precedes payload by design
	cl.timeNs.Store(time.Now().UnixNano())
	cl.kind.Store(uint32(kind))
	cl.a.Store(a)
	cl.b.Store(b)
	cl.c.Store(c)
	cl.marker.Store(t << 1)
}

// Seq returns the number of events ever appended.
func (r *Ring) Seq() uint64 { return r.next.Load() }

// Dump returns the surviving events oldest-first. It is safe to call
// concurrently with Append (and with other Dumps): cells being written
// or already overwritten are skipped.
func (r *Ring) Dump() []Event {
	hi := r.next.Load()
	size := r.mask + 1
	lo := uint64(1)
	if hi > size {
		lo = hi - size + 1
	}
	out := make([]Event, 0, hi-lo+1)
	for t := lo; t <= hi; t++ {
		cl := &r.cells[(t-1)&r.mask]
		if cl.marker.Load() != t<<1 {
			continue // unpublished, in-flight, or lapped
		}
		ev := Event{
			Seq:      t,
			UnixNano: cl.timeNs.Load(),
			Kind:     EventKind(cl.kind.Load()),
			A:        cl.a.Load(),
			B:        cl.b.Load(),
			C:        cl.c.Load(),
		}
		if cl.marker.Load() != t<<1 {
			continue // overwritten mid-read; payload may be torn
		}
		out = append(out, ev)
	}
	return out
}
