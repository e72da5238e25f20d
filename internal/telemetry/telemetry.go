// Package telemetry is the map's unified observability layer: sharded
// always-on counters (the arena's alloc calls, epoch advances and drains,
// core sizes, server commands; byte accounting derives from the arena's
// free lists instead), sampled op-latency histograms whose
// sample counts also estimate the op totals, and a lock-free flight
// recorder for structural events. Everything a *Recorder exposes is
// nil-safe: a nil recorder turns every call into a branch on a nil
// check, so the instrumented hot paths cost one predictable compare when
// telemetry is disabled (the default).
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards is the stripe width of a Counter. 32 cache-padded cells
// absorb the write traffic of every goroutine the runtime can keep
// simultaneously in an Add; merging on read is a 32-load sum.
const counterShards = 32

type counterShard struct {
	v atomic.Int64
	_ [56]byte // one shard per cache line, no false sharing
}

// Counter is a lock-free sharded counter: writes go to a stripe picked
// by the caller's stack address (the same affinity trick as epoch.Pin —
// a stack local's address is stable per goroutine, so each goroutine
// keeps hitting the same core-local cache line), reads merge all
// stripes. Unlike the Recorder it is always on: it replaces plain
// atomic.Int64 counters wholesale, trading the exact single-word read
// for contention-free writes.
//
// The zero Counter is ready to use.
type Counter struct {
	shards [counterShards]counterShard
}

// shardIndex hashes the caller's stack address into a stripe index.
func shardIndex() int {
	var anchor byte
	h := uint64(uintptr(unsafe.Pointer(&anchor))) * 0x9e3779b97f4a7c15
	return int(h>>59) & (counterShards - 1)
}

// Add adds delta and returns the new shard-local value (NOT the merged
// total — callers that sample "1 in N" per shard rely on exactly this).
func (c *Counter) Add(delta int64) int64 {
	return c.shards[shardIndex()].v.Add(delta)
}

// Inc is Add(1).
func (c *Counter) Inc() int64 { return c.Add(1) }

// Load merges all stripes. The per-stripe loads are independent, so a
// read concurrent with writers is a weak snapshot: it includes every
// write that completed before the read began, and some subset of the
// in-flight ones. It can never go backwards between two quiesced reads.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Op identifies one instrumented operation class.
type Op uint8

const (
	// Hot-path ops: latency-sampled 1 in 2^sampleShift, and counted by
	// scaling the samples back up.
	OpGet Op = iota
	OpPut
	OpRemove
	OpCompute
	// OpScanNext ("scan_next") is one cursor advance, timed without the
	// caller's callbacks: a pull cursor's Next, or one run of a push scan.
	OpScanNext
	// Rare structural ops: timed on every occurrence, so counted exactly.
	OpRebalance
	OpEpochAdvance
	OpEpochDrain
	OpArenaCompact
	OpArenaRescue
	NumOps // sentinel
)

// NumHotOps is the number of hot-path op classes (OpGet … OpScanNext),
// the ones whose caller supplies the sample sequence (see Op).
const NumHotOps = OpScanNext + 1

var opNames = [NumOps]string{
	"get", "put", "remove", "compute", "scan_next",
	"rebalance", "epoch_advance", "epoch_drain", "arena_compact", "arena_rescue",
}

// String returns the op's exporter-facing label value.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "unknown"
}

// DefaultSampleShift makes hot ops time 1 in 64 calls: two time.Now()
// reads (~50ns) amortize to <1ns per op against a few-hundred-ns Get,
// which is what keeps the enabled-telemetry overhead under the 3%
// budget (TestTelemetryOverheadGate; EXPERIMENTS.md "Telemetry overhead").
const DefaultSampleShift = 6

// DefaultEventBuffer is the flight-recorder capacity (events).
const DefaultEventBuffer = 1024

// Config sizes a Recorder. The zero value means defaults.
type Config struct {
	// SampleShift: hot-op latency is recorded 1 in 2^SampleShift calls.
	// 0 means DefaultSampleShift; negative means sample every call.
	SampleShift int
	// EventBuffer is the flight-recorder capacity, rounded up to a
	// power of two. 0 means DefaultEventBuffer.
	EventBuffer int
}

// GaugeKind tells the exporter how to type a registered read-out.
type GaugeKind uint8

const (
	KindGauge GaugeKind = iota
	KindCounter
)

// Gauge is a named read-out registered on a Recorder: the exporter
// calls Read at scrape time. Name may carry Prometheus labels
// (`oak_arena_class_spans{class="64"}`).
type Gauge struct {
	Name string
	Kind GaugeKind
	Read func() float64
}

// Recorder aggregates everything one telemetry scope observes. All
// methods are safe on a nil receiver (no-ops), which is how disabled
// telemetry stays near-free: instrumentation sites call through
// unconditionally.
type Recorder struct {
	sampleShift uint
	sampleMask  uint64
	ops         [NumOps]AtomicHist
	ring        *Ring

	mu     sync.Mutex
	gauges map[string]Gauge //oak:guarded-by mu
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	shift := cfg.SampleShift
	if shift == 0 {
		shift = DefaultSampleShift
	}
	if shift < 0 {
		shift = 0
	}
	buf := cfg.EventBuffer
	if buf <= 0 {
		buf = DefaultEventBuffer
	}
	return &Recorder{
		sampleShift: uint(shift),
		sampleMask:  1<<uint(shift) - 1,
		ring:        NewRing(buf),
		gauges:      make(map[string]Gauge),
	}
}

// Tick is an in-flight measurement; the zero Tick (unsampled or nil
// recorder) makes Done a nil check.
type Tick struct {
	r     *Recorder
	start time.Duration // since clockBase, monotonic
	op    Op
}

// clockBase anchors Tick starts: a Duration keeps Tick three words, so
// it is passed and returned in registers.
var clockBase = time.Now()

// Op starts a latency measurement of one hot-path operation of class op
// when n, the operation's number in a per-class sequence the caller
// keeps, is a multiple of 2^SampleShift, and returns the zero Tick
// otherwise. The recorder keeps no count of its own: OpSnapshot scales
// the samples back up. In the map the sequence lives in the epoch slot
// the operation has pinned (epoch.Guard.Op), so the unsampled path —
// inlinable: a nil check and a mask test — writes nothing shared.
func (r *Recorder) Op(op Op, n uint64) Tick {
	if r == nil || n&r.sampleMask != 0 {
		return Tick{}
	}
	return r.sampledTick(op)
}

// sampledTick is Op's cold path: start the clock on a sampled call. It
// stays out of line so that Op inlines.
//
//go:noinline
func (r *Recorder) sampledTick(op Op) Tick {
	return Tick{r: r, op: op, start: time.Since(clockBase)}
}

// Done finishes a measurement. The zero-Tick path (unsampled or
// disabled) inlines to a nil check, which is what a deferred Done costs
// on 63 of 64 hot ops. The pointer receiver lets a caller defer Done on
// a Tick it starts later.
func (t *Tick) Done() {
	if t.r != nil {
		t.finish()
	}
}

// finish is Done's cold path: record the sampled latency.
func (t *Tick) finish() {
	t.r.ops[t.op].Observe(time.Since(clockBase) - t.start)
}

// Span starts an always-timed measurement for a rare structural op
// (rebalance, epoch advance/drain, compact, rescue). Finish with Done.
func (r *Recorder) Span(op Op) Tick {
	if r == nil {
		return Tick{}
	}
	return Tick{r: r, op: op, start: time.Since(clockBase)}
}

// Event appends a structural event to the flight recorder.
func (r *Recorder) Event(kind EventKind, a, b, c uint64) {
	if r != nil {
		r.ring.Append(kind, a, b, c)
	}
}

// Events returns the flight recorder's surviving events in sequence
// order (oldest first). Nil recorder → nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.ring.Dump()
}

// EventSeq returns the total number of events ever appended.
func (r *Recorder) EventSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Seq()
}

// OpStats is a read-side snapshot of one op's histogram and count.
type OpStats struct {
	Op Op
	// Count is the number of operations: exact for structural ops and
	// with SampleShift < 0; for hot ops the samples times 2^SampleShift,
	// off the true count by less than 2^SampleShift per sequence the
	// samples were drawn from.
	Count uint64
	Hist  HistSnapshot
}

// OpSnapshot captures one op.
func (r *Recorder) OpSnapshot(op Op) OpStats {
	if r == nil || op >= NumOps {
		return OpStats{Op: op}
	}
	h := r.ops[op].Snapshot()
	n := h.Count
	if op < NumHotOps {
		n <<= r.sampleShift
	}
	return OpStats{Op: op, Count: n, Hist: h}
}

// Snapshot captures every op.
func (r *Recorder) Snapshot() []OpStats {
	if r == nil {
		return nil
	}
	out := make([]OpStats, 0, NumOps)
	for op := Op(0); op < NumOps; op++ {
		out = append(out, r.OpSnapshot(op))
	}
	return out
}

// RegisterGauge registers (or replaces) a named read-out for the
// exporter. Safe on nil (dropped).
func (r *Recorder) RegisterGauge(name string, kind GaugeKind, read func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = Gauge{Name: name, Kind: kind, Read: read}
	r.mu.Unlock()
}

// Gauges returns the registered read-outs sorted by name.
func (r *Recorder) Gauges() []Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
