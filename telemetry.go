package oakmap

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"oakmap/internal/arena"
	"oakmap/internal/core"
	"oakmap/internal/telemetry"
	"oakmap/internal/telemetry/export"
)

// Telemetry is the map's observability scope: sampled op-latency
// histograms (whose sample counts, scaled up, are the op counts),
// structural gauges, and a bounded flight recorder of structural events
// (rebalances, epoch advances, limbo drains, block lifecycle, free-list
// migrations). Attach one via Options.Telemetry; a single Telemetry may
// be shared by several maps (their ops aggregate; per-map gauges are
// registered by the most recently constructed map).
//
// Telemetry is disabled by default. When attached, hot-path latency is
// sampled (1 in 64 operations, picked by a per-op sequence in the epoch
// slot the operation already holds), keeping the measured Get overhead
// under 3% (TestTelemetryOverheadGate; EXPERIMENTS.md "Telemetry
// overhead"); rare structural operations — rebalance, epoch
// advance/drain, arena compaction and rescue — are timed on every
// occurrence. The flight recorder keeps the last 1024 events.
type Telemetry struct {
	rec *telemetry.Recorder
}

// TelemetryOptions is reserved for future settings; it has no fields
// and NewTelemetry accepts nil.
type TelemetryOptions struct{}

// NewTelemetry creates a telemetry scope to pass in Options.Telemetry.
func NewTelemetry(*TelemetryOptions) *Telemetry {
	return &Telemetry{rec: telemetry.New(telemetry.Config{})}
}

// recorder returns the internal recorder (nil for nil t), for wiring
// into core options.
func (t *Telemetry) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Every exported Telemetry method is safe on a nil receiver, exactly
// like the internal Recorder: a nil *Telemetry means "telemetry
// disabled" and every read-out degrades to its empty form (no events,
// zero counts, empty summary, a /metrics page that says so). Tools that
// thread an optional telemetry scope (oak-stress, oak-server) rely on
// this so their reporting paths need no nil branches.

// MetricsHandler serves the Prometheus text-format exposition — mount
// it at /metrics. On a nil scope the handler reports telemetry
// disabled rather than panicking at serve time.
func (t *Telemetry) MetricsHandler() http.Handler {
	return export.Handler(t.recorder())
}

// WriteMetrics renders the Prometheus text-format exposition to w.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	return export.WriteMetrics(w, t.recorder())
}

// PublishExpvar registers the telemetry snapshot under name in the
// process-global expvar registry (served at /debug/vars). Safe to call
// more than once; the first registration for a name wins.
func (t *Telemetry) PublishExpvar(name string) {
	export.Publish(name, t.recorder())
}

// Summary renders a human-readable per-op latency table (empty when
// nothing has been recorded, or when t is nil).
func (t *Telemetry) Summary() string {
	return export.SummaryTable(t.recorder())
}

// RegisterGauge registers (or replaces) a named read-out on the scope,
// exported through MetricsHandler/WriteMetrics alongside the map's own
// gauges. counter marks cumulative totals (Prometheus TYPE counter);
// name may carry labels (`oak_server_commands_total{cmd="get"}`).
// Subsystems layered over the map — oak-server is the canonical one —
// use this to ride the existing exporter instead of running their own.
// No-op on a nil scope.
func (t *Telemetry) RegisterGauge(name string, counter bool, read func() float64) {
	kind := telemetry.KindGauge
	if counter {
		kind = telemetry.KindCounter
	}
	t.recorder().RegisterGauge(name, kind, read)
}

// TelemetryEvent is one flight-recorder entry. A, B and C are
// kind-specific arguments:
//
//	rebalance_begin  A: heuristic live entries in the engaged chunk
//	rebalance_end    A: chunks retired  B: chunks produced  C: entries migrated
//	epoch_advance    A: new epoch
//	limbo_drain      A: items drained   B: bytes drained
//	block_grow       A: allocator block count  B: block size bytes
//	block_retain     A: pooled free blocks after the retain
//	class_migrate    A: migrated span length in bytes
type TelemetryEvent struct {
	Seq     uint64 // global sequence number (1-based, gap-free at append)
	Time    time.Time
	Kind    string
	A, B, C uint64
}

// String renders the event for logs.
func (e TelemetryEvent) String() string {
	return fmt.Sprintf("#%d %s %s a=%d b=%d c=%d",
		e.Seq, e.Time.Format("15:04:05.000000"), e.Kind, e.A, e.B, e.C)
}

// DumpEvents returns the flight recorder's surviving events oldest
// first (nil for a nil scope). Safe to call concurrently with live
// operations: events being overwritten at that instant are skipped,
// never returned torn.
func (t *Telemetry) DumpEvents() []TelemetryEvent {
	evs := t.recorder().Events()
	if evs == nil {
		return nil
	}
	out := make([]TelemetryEvent, len(evs))
	for i, ev := range evs {
		out[i] = TelemetryEvent{
			Seq:  ev.Seq,
			Time: time.Unix(0, ev.UnixNano),
			Kind: ev.Kind.String(),
			A:    ev.A, B: ev.B, C: ev.C,
		}
	}
	return out
}

// EventCount returns the total number of events ever appended to the
// flight recorder — including those already overwritten. DumpEvents
// returns at most the buffer's worth of the newest ones.
func (t *Telemetry) EventCount() uint64 {
	return t.recorder().EventSeq()
}

// registerGauges wires a map's structural read-outs into the recorder so
// the exporter can enumerate them at scrape time. Names follow Prometheus
// conventions. Every oak_* family is a rollup over the shards — a sum,
// or the maximum for the epoch (domains advance independently), open
// snapshots and horizon lag (a cross-shard snapshot registers on every
// shard, so a sum would count it once per shard) — which for one shard
// is that shard's own value, so dashboards keep their series across a
// Shards config change. What differs by shard count is the breakdown:
// one shard exports per-class arena occupancy (a class label carrying
// the class's span size in bytes); several export oak_shards and
// per-shard labeled gauges for the signals that matter per partition —
// occupancy, live bytes and rebalance pressure —
// and no per-class series: shards × classes would drown scrapes for no
// diagnostic gain.
func registerGauges(r *telemetry.Recorder, shards []*core.Map) {
	// Arena gauges read through per-shard snapshots: one ArenaStats call
	// per shard per scrape, not per gauge (see arenaSnap).
	snaps := make([]*arenaSnap, len(shards))
	for i, c := range shards {
		snaps[i] = &arenaSnap{c: c}
	}
	const gauge, counter = telemetry.KindGauge, telemetry.KindCounter
	for _, g := range []struct {
		name string
		kind telemetry.GaugeKind
		max  bool // roll up by maximum, not sum
		per  func(i int) float64
	}{
		{"oak_len", gauge, false, func(i int) float64 { return float64(shards[i].Len()) }},
		{"oak_footprint_bytes", gauge, false, func(i int) float64 { return float64(snaps[i].get().Footprint) }},
		{"oak_live_bytes", gauge, false, func(i int) float64 { return float64(snaps[i].get().LiveBytes) }},
		{"oak_chunks", gauge, false, func(i int) float64 { return float64(shards[i].NumChunks()) }},
		{"oak_rebalances_total", counter, false, func(i int) float64 { return float64(shards[i].Rebalances()) }},
		{"oak_header_count", gauge, false, func(i int) float64 { return float64(shards[i].HeaderCount()) }},

		{"oak_epoch", counter, true, func(i int) float64 { return float64(shards[i].ReclaimStats().Epoch) }},
		{"oak_pinned_readers", gauge, false, func(i int) float64 { return float64(shards[i].ReclaimStats().Pinned) }},
		{"oak_limbo_items", gauge, false, func(i int) float64 { return float64(shards[i].ReclaimStats().LimboItems) }},
		{"oak_limbo_bytes", gauge, false, func(i int) float64 { return float64(shards[i].ReclaimStats().LimboBytes) }},
		{"oak_epoch_advances_total", counter, false, func(i int) float64 { return float64(shards[i].ReclaimStats().Advances) }},
		{"oak_epoch_drains_total", counter, false, func(i int) float64 { return float64(shards[i].ReclaimStats().Drains) }},
		{"oak_epoch_slot_overflows_total", counter, false, func(i int) float64 { return float64(shards[i].ReclaimStats().SlotOverflows) }},

		{"oak_mvcc_open_snapshots", gauge, true, func(i int) float64 { return float64(shards[i].MVCCStats().OpenSnapshots) }},
		{"oak_mvcc_retained_bytes", gauge, false, func(i int) float64 { return float64(shards[i].MVCCStats().RetainedBytes) }},
		{"oak_mvcc_retained_spans", gauge, false, func(i int) float64 { return float64(shards[i].MVCCStats().RetainedSpans) }},
		{"oak_mvcc_horizon_lag", gauge, true, func(i int) float64 { return float64(shards[i].MVCCStats().HorizonLag) }},

		{"oak_arena_blocks", gauge, false, func(i int) float64 { return float64(snaps[i].get().Blocks) }},
		{"oak_arena_free_spans", gauge, false, func(i int) float64 { return float64(snaps[i].get().FreeSpans) }},
		{"oak_arena_alloc_calls_total", counter, false, func(i int) float64 { return float64(snaps[i].get().AllocCalls) }},
	} {
		g := g
		r.RegisterGauge(g.name, g.kind, func() float64 {
			var out float64
			for i := range shards {
				if v := g.per(i); !g.max {
					out += v
				} else if v > out {
					out = v
				}
			}
			return out
		})
	}
	r.RegisterGauge("oak_arena_fragmentation_ratio", gauge, func() float64 {
		return rollupFragmentation(len(snaps), func(i int) (float64, int64) {
			st := snaps[i].get()
			return st.Fragmentation, st.Footprint
		})
	})

	if len(shards) == 1 {
		snap := snaps[0]
		for i, cs := range snap.get().Classes {
			idx := i // capture
			class := fmt.Sprintf("{class=%q}", fmt.Sprint(cs.Size))
			r.RegisterGauge("oak_arena_class_spans"+class, gauge, func() float64 {
				return float64(snap.get().Classes[idx].Spans)
			})
			r.RegisterGauge("oak_arena_class_bytes"+class, gauge, func() float64 {
				return float64(snap.get().Classes[idx].Bytes)
			})
		}
		return
	}
	r.RegisterGauge("oak_shards", gauge, func() float64 { return float64(len(shards)) })
	for i, c := range shards {
		c, snap := c, snaps[i]
		lbl := fmt.Sprintf("{shard=%q}", fmt.Sprint(i))
		r.RegisterGauge("oak_shard_len"+lbl, gauge, func() float64 { return float64(c.Len()) })
		r.RegisterGauge("oak_shard_live_bytes"+lbl, gauge, func() float64 { return float64(snap.get().LiveBytes) })
		r.RegisterGauge("oak_shard_rebalances_total"+lbl, counter, func() float64 { return float64(c.Rebalances()) })
	}
}

// arenaSnapTTL is how long one ArenaStats snapshot serves gauge reads.
// A scrape enumerates every gauge within microseconds, so 2ms collapses
// a scrape's O(gauges) ArenaStats calls into one while staying far
// below any scrape interval — back-to-back scrapes still see fresh
// numbers.
const arenaSnapTTL = 2 * time.Millisecond

// arenaSnap memoizes one shard's ArenaStats for the duration of a
// scrape (see arenaSnapTTL).
type arenaSnap struct {
	c  *core.Map
	mu sync.Mutex
	at time.Time
	st arena.Stats
}

func (a *arenaSnap) get() arena.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.at.IsZero() || time.Since(a.at) > arenaSnapTTL {
		a.st = a.c.ArenaStats()
		a.at = time.Now()
	}
	return a.st
}
