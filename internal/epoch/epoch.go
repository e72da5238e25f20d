// Package epoch implements registration-based epoch reclamation (EBR),
// the generalization of the paper's §3.3 sketch from value headers to
// arbitrary off-heap resources. A Domain maintains a global epoch
// counter and a fixed array of cache-line-padded reader slots. Readers
// Pin() a slot — announcing the epoch they entered at — for the duration
// of a critical section that dereferences off-heap memory. Writers
// Retire resources into per-epoch limbo lists instead of freeing them;
// a retired resource is handed to the domain's free callback only after
// the global epoch has advanced far enough that every reader pinned at
// (or before) the retirement epoch has unpinned.
//
// The grace argument is the classic three-epoch one. A resource is
// unlinked from the shared structure before it is retired, and Retire
// reads the global epoch e after the unlink, so a reader pinned at any
// epoch > e provably pinned after the unlink and cannot reach the
// resource. Retirements at epoch e are drained during the advance
// e+2 → e+3, whose precondition is that every active reader is pinned
// at exactly e+2: readers pinned at e or e+1 are gone (they blocked the
// two previous advances), and readers at e+2 pinned after the unlink.
// Three limbo buckets indexed by epoch mod 3 therefore suffice. The
// bucket is privatized BEFORE the new epoch is published: while the
// global still reads e+2 a concurrent Retire can only append to bucket
// (e+2) mod 3, never to the one being drained, so a late Retire only
// postpones its free by one full cycle — it can never slip into a
// drain and be freed early.
package epoch

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"unsafe"

	"oakmap/internal/faultpoint"
	"oakmap/internal/telemetry"
)

// Fault-injection points on the reclamation engine (no-ops unless a
// test arms them).
var (
	// FpAdvance is hit after the reader scan has verified the minimum
	// pinned epoch and before the advance acts on it (drain, then
	// publish): a pausing hook stretches the window where the
	// verification is stale but the counter has not moved.
	FpAdvance = faultpoint.New("epoch/advance")
	// FpDrain is hit after a limbo bucket has been privatized and before
	// its resources are handed to the free callback: a pausing hook
	// widens the gap between "logically reclaimed" and "actually freed",
	// the window stale readers would hit if the grace computation were
	// wrong.
	FpDrain = faultpoint.New("epoch/drain")
)

const (
	// slotCount bounds the number of readers pinned via fast
	// cache-line-padded slots. Pins are held for the duration of one map
	// operation (or one cursor step), so exhaustion means slotCount
	// simultaneous in-flight operations; beyond it Pin falls back to the
	// per-epoch overflow counters — it never waits for a slot to free,
	// because pins nest (Pin under Pin on the same goroutine is legal
	// and happens whenever a scan callback re-enters the map), and a
	// blocking fallback would let slotCount nested pinners deadlock in
	// hold-and-wait.
	slotCount = 128
	// buckets is the limbo-list ring size; three epochs of separation
	// give the grace guarantee above.
	buckets = 3
	// DefaultLimboThreshold is the retired-item count past which every
	// 16th Retire attempts an advance. Apart from Quiesce, that backlog
	// is the domain's only advance trigger.
	DefaultLimboThreshold = 512
)

// Retired is one deferred resource: an opaque caller-defined kind and
// value (in Oak: an arena span ref or a value header's handle).
type Retired struct {
	Kind uint8
	Val  uint64
}

// slot is one reader announcement cell. word is 0 when free, else
// epoch<<1|1. seq holds one telemetry sample sequence per hot op class
// (Guard.Op). Only the slot's pinner touches it, and ownership passes
// from one pinner to the next through word — the unpin's Store(0), then
// the next pin's CAS — so its plain increments are race-free. The
// padding keeps each slot on its own cache line so concurrent pins never
// false-share.
type slot struct {
	word atomic.Uint64
	seq  [telemetry.NumHotOps]uint64
	_    [56 - 8*telemetry.NumHotOps]byte
}

// tryPin claims a free slot at the current global epoch. After
// publishing, it refreshes the announcement if the global moved — a
// stale-low announcement is always safe (it only delays advances) but
// would stall reclamation under pin-heavy loads.
func (s *slot) tryPin(global *atomic.Uint64) bool {
	e := global.Load()
	if !s.word.CompareAndSwap(0, e<<1|1) {
		return false
	}
	for i := 0; i < 4; i++ {
		cur := global.Load()
		if cur == e {
			break
		}
		s.word.Store(cur<<1 | 1)
		e = cur
	}
	return true
}

type limbo struct {
	mu sync.Mutex
	// items must be drained (privatized) before an advance publishes the
	// new epoch — publish-first would let a Retire at the new epoch slip
	// into the draining bucket and be freed with zero grace (the exact
	// ordering bug lockset's publish-before rule re-proves; see
	// advanceLocked).
	items []Retired //oak:guarded-by mu //oak:publish-before Domain.global
	bytes int64     //oak:guarded-by mu
}

// Domain is one reclamation scope (in Oak: one Map). The free callback
// receives drained batches; it runs on whichever goroutine performed
// the advance and must not call back into Pin/Retire on the same
// domain.
type Domain struct {
	global atomic.Uint64
	count  atomic.Int64 // items across all limbo buckets
	rotor  atomic.Uint32

	slots [slotCount]slot
	limbo [buckets]limbo

	// overflow counts readers that found every slot taken, bucketed by
	// pinned epoch mod buckets. The wheel cannot conflate epochs: a
	// reader k epochs behind blocks every advance until it unpins, so by
	// the time a bucket index repeats (3 epochs) its old occupants are
	// gone. The cold path tolerates the shared cache line.
	overflow [buckets]atomic.Int64
	// overflowSeq is the telemetry sample sequence, one per hot op
	// class, of ops whose guard holds no slot.
	overflowSeq [telemetry.NumHotOps]atomic.Uint64

	// advanceMu serializes epoch advances; the slot scan and the CAS on
	// global are only performed under it.
	advanceMu sync.Mutex

	free func([]Retired)

	// advances/drains are sharded: Retire-triggered tryAdvance calls
	// bump them from many goroutines, and the read side (Stats) is cold.
	advances telemetry.Counter
	drains   telemetry.Counter
	// slotOverflows counts pins that found every slot taken — the §6
	// tail contributor the telemetry layer surfaces: sustained overflow
	// means more concurrent readers than slots, and each one both pays
	// the shared-cache-line cold path and can stall advances one epoch
	// sooner than a slotted reader would.
	slotOverflows telemetry.Counter

	// tel, when set, receives advance/drain durations and structural
	// events. Atomic so SetTelemetry may race with live operations.
	tel atomic.Pointer[telemetry.Recorder]
}

// NewDomain creates a domain whose drained resources are handed to
// free in retirement order.
func NewDomain(free func([]Retired)) *Domain {
	return &Domain{free: free}
}

// SetTelemetry attaches a recorder: epoch advances and limbo drains are
// timed into it (OpEpochAdvance/OpEpochDrain) and emitted as flight-
// recorder events. Safe to call concurrently with live operations; a
// nil recorder detaches.
func (d *Domain) SetTelemetry(r *telemetry.Recorder) {
	d.tel.Store(r)
}

// Guard is an active reader registration. It must be released with
// Unpin exactly once; Unpin of the zero Guard is a no-op.
type Guard struct {
	d *Domain
	s *slot  // nil for an overflow registration
	e uint64 // overflow only: the pinned epoch
}

// Pin registers the caller as an active reader at the current epoch and
// returns the guard protecting its critical section: no resource
// retired at (or after) the pinned epoch is freed until Unpin. Pin
// never blocks on other readers, so pins may nest freely (a scan
// callback that re-enters the map pins again on the same goroutine).
//
// Slot affinity is derived from the goroutine's stack address: the
// address of a stack local is stable for the goroutine's lifetime
// (stack growth merely re-homes it), so each goroutine keeps hitting
// the same announcement cell and its cache line stays core-local —
// without any per-pin runtime coordination (sync.Pool's pin/unpin of
// the P costs more than the announcement CAS itself). A neighbor probe
// absorbs most birthday collisions; persistent crowds fall through to
// the rotor scan, and with every slot taken the pin lands in the
// overflow counters instead of waiting.
func (d *Domain) Pin() Guard {
	var anchor byte
	h := uint64(uintptr(unsafe.Pointer(&anchor))) * 0x9e3779b97f4a7c15
	s := &d.slots[(h>>57)&(slotCount-1)]
	if s.tryPin(&d.global) {
		return Guard{d: d, s: s}
	}
	s = &d.slots[(h>>57+1)&(slotCount-1)]
	if s.tryPin(&d.global) {
		return Guard{d: d, s: s}
	}
	if s := d.acquireSlot(); s != nil {
		return Guard{d: d, s: s}
	}
	return d.pinOverflow()
}

// acquireSlot scans for a free slot, starting at a rotating position so
// concurrent acquirers spread out. It gives up (nil) after two full
// scans rather than waiting for a slot to free: the caller may already
// hold a pin lower in its stack, and slotCount such callers waiting on
// each other would be a permanent hold-and-wait deadlock. The overflow
// path is the wait-free fallback.
func (d *Domain) acquireSlot() *slot {
	start := d.rotor.Add(1)
	for r := 0; r < 2; r++ {
		if r > 0 {
			runtime.Gosched()
		}
		for j := uint32(0); j < slotCount; j++ {
			s := &d.slots[(start+j)%slotCount]
			if s.word.Load() == 0 && s.tryPin(&d.global) {
				return s
			}
		}
	}
	return nil
}

// pinOverflow registers the caller in the per-epoch overflow counters.
// The announce-then-validate loop makes the registration race-free:
// the increment is globally visible before the validating re-load
// (sync/atomic operations are totally ordered), so if the global still
// reads e, every later advance — whose CAS must follow that load —
// scans the counters after the increment and observes the reader. If
// the global moved, the stale announcement is withdrawn and the pin
// retries at the new epoch; advances are serialized, so the loop
// settles in a step or two. Overflow announcements are not refreshed
// the way slot words are, which can stall an advance one epoch sooner —
// acceptable for a path reached only beyond slotCount concurrent pins.
func (d *Domain) pinOverflow() Guard {
	for {
		e := d.global.Load()
		b := &d.overflow[e%buckets]
		b.Add(1)
		if d.global.Load() == e {
			d.slotOverflows.Inc()
			return Guard{d: d, e: e}
		}
		b.Add(-1)
	}
}

// Op starts r's measurement of one hot op of class op running under g
// (see telemetry.Recorder.Op). The sample is picked by the class's
// sequence in g's slot, a plain increment on a line the pin has just
// written; an overflow guard shares one atomic sequence per class. With
// r nil it is a nil check and touches nothing.
func (g Guard) Op(r *telemetry.Recorder, op telemetry.Op) telemetry.Tick {
	if r == nil {
		return telemetry.Tick{}
	}
	return g.sample(r, op)
}

// sample is Op with telemetry attached, out of line so that Op inlines
// to its nil check.
func (g Guard) sample(r *telemetry.Recorder, op telemetry.Op) telemetry.Tick {
	var n uint64
	if s := g.s; s != nil {
		s.seq[op]++
		n = s.seq[op]
	} else {
		n = g.d.overflowSeq[op].Add(1)
	}
	return r.Op(op, n)
}

// Unpin releases the registration.
func (g Guard) Unpin() {
	if g.s != nil {
		g.s.word.Store(0)
		return
	}
	if g.d != nil {
		g.d.overflow[g.e%buckets].Add(-1)
	}
}

// Retire defers a resource until the grace period has elapsed. size is
// accounting only (surfaced as LimboBytes). The caller must have
// already unlinked the resource from the shared structure: after Retire
// no new reader may be able to reach it.
func (d *Domain) Retire(r Retired, size int64) {
	e := d.global.Load()
	b := &d.limbo[e%buckets]
	b.mu.Lock()
	b.items = append(b.items, r)
	b.bytes += size
	b.mu.Unlock()
	// Opportunistic advance once the backlog is large. The attempt is
	// amortized (1 in 16 retires) because a reader pinned at an old
	// epoch makes every attempt fail with a full slot scan.
	if c := d.count.Add(1); c >= DefaultLimboThreshold && c%16 == 0 {
		d.tryAdvance()
	}
}

// tryAdvance attempts one epoch advance without blocking: it fails if
// another advance is in flight or some reader is pinned at an older
// epoch. On success the limbo bucket whose grace period just elapsed is
// drained into the free callback.
func (d *Domain) tryAdvance() bool {
	if !d.advanceMu.TryLock() {
		return false
	}
	defer d.advanceMu.Unlock()
	return d.advanceLocked()
}

// Advance is the blocking-lock variant of tryAdvance, for quiesce paths
// that must not be starved by concurrent opportunistic attempts.
func (d *Domain) Advance() bool {
	d.advanceMu.Lock()
	defer d.advanceMu.Unlock()
	return d.advanceLocked()
}

func (d *Domain) advanceLocked() bool {
	e := d.global.Load()
	for i := range d.slots {
		if w := d.slots[i].word.Load(); w != 0 && w>>1 != e {
			return false // a reader is still pinned at an older epoch
		}
	}
	for i := range d.overflow {
		if uint64(i) != e%buckets && d.overflow[i].Load() != 0 {
			return false // an overflow reader is pinned at an older epoch
		}
	}
	FpAdvance.Fire()
	r := d.tel.Load()
	tick := r.Span(telemetry.OpEpochAdvance)
	// Bucket (e+1) mod 3 holds retirements from epoch e-2, whose grace
	// period elapses with this advance. It MUST be drained before the
	// CAS publishes e+1: while the global still reads e, a concurrent
	// Retire can only append to bucket e mod 3, so the privatization
	// below races with nothing. Publishing first would let a Retire
	// that loads the new epoch slip its item into this bucket between
	// the CAS and the privatization — freeing it with zero grace period
	// while readers pinned at e may still hold references to it.
	d.drainBucket(int((e + 1) % buckets))
	d.global.CompareAndSwap(e, e+1)
	d.advances.Inc()
	tick.Done()
	r.Event(telemetry.EvEpochAdvance, e+1, 0, 0)
	return true
}

// drainBucket hands bucket i's items to the free callback. The bucket's
// array is lent out for the callback and handed back (emptied) once it
// returns, before the caller publishes the new epoch, so Retire's append
// reuses it instead of regrowing a new one every cycle.
func (d *Domain) drainBucket(i int) {
	b := &d.limbo[i]
	b.mu.Lock()
	items := b.items
	bytes := b.bytes
	b.items, b.bytes = nil, 0
	b.mu.Unlock()
	if len(items) == 0 {
		return
	}
	defer func() {
		// Only a Retire that loaded an old epoch can have appended since:
		// then its array stays and this one goes to the GC.
		b.mu.Lock()
		if b.items == nil {
			b.items = items[:0]
		}
		b.mu.Unlock()
	}()
	FpDrain.Fire()
	d.count.Add(int64(-len(items)))
	d.drains.Inc()
	r := d.tel.Load()
	tick := r.Span(telemetry.OpEpochDrain)
	if r != nil {
		// The pprof label attributes the free callback's CPU (arena
		// frees) to reclamation in profiles instead of
		// smearing it over whichever map operation tripped the advance.
		pprof.Do(context.Background(), pprof.Labels("oak", "epoch-drain"), func(context.Context) {
			d.free(items)
		})
	} else {
		d.free(items)
	}
	tick.Done()
	r.Event(telemetry.EvLimboDrain, uint64(len(items)), uint64(bytes), 0)
}

// Quiesce drains every limbo bucket by advancing through a full epoch
// cycle. It reports whether the limbo emptied; false means some reader
// stayed pinned at an old epoch throughout.
func (d *Domain) Quiesce() bool {
	for i := 0; i < buckets+1; i++ {
		if d.count.Load() == 0 {
			return true
		}
		if !d.Advance() {
			return d.count.Load() == 0
		}
	}
	return d.count.Load() == 0
}

// Stats is an observability snapshot of the domain.
type Stats struct {
	Epoch      uint64 // current global epoch
	Pinned     int    // readers currently registered
	LimboItems int    // retired resources awaiting their grace period
	LimboBytes int64  // accounted bytes of those resources
	Advances   int64  // successful epoch advances
	Drains     int64  // non-empty bucket drains
	// SlotOverflows counts pins that overflowed the slot array (more
	// concurrent readers than slotCount): each pays the shared-counter
	// cold path and may stall advances one epoch sooner.
	SlotOverflows int64
}

// Stats returns a snapshot (the slot scan makes it O(slotCount)).
func (d *Domain) Stats() Stats {
	st := Stats{
		Epoch:         d.global.Load(),
		Advances:      d.advances.Load(),
		Drains:        d.drains.Load(),
		SlotOverflows: d.slotOverflows.Load(),
	}
	for i := range d.slots {
		if d.slots[i].word.Load() != 0 {
			st.Pinned++
		}
	}
	for i := range d.overflow {
		st.Pinned += int(d.overflow[i].Load())
	}
	for i := range d.limbo {
		b := &d.limbo[i]
		b.mu.Lock()
		st.LimboItems += len(b.items)
		st.LimboBytes += b.bytes
		b.mu.Unlock()
	}
	return st
}
