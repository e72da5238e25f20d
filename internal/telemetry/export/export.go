// Package export turns a telemetry.Recorder into the two standard Go
// monitoring surfaces: a Prometheus text-format /metrics handler and an
// expvar JSON snapshot. It lives apart from package telemetry so the
// map's core (which records) never imports net/http (which serves).
package export

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"oakmap/internal/telemetry"
)

// WriteMetrics renders the recorder's full state in the Prometheus text
// exposition format (version 0.0.4): one histogram family for op
// latencies, one counter family for op counts (hot ops' scaled up from
// their samples), the registered gauges, and the flight-recorder
// sequence number.
func WriteMetrics(w io.Writer, r *telemetry.Recorder) error {
	if r == nil {
		_, err := fmt.Fprint(w, "# oak telemetry disabled\n")
		return err
	}
	bw := &errWriter{w: w}

	bw.printf("# HELP oak_op_latency_seconds Operation latency (hot ops sampled 1 in 2^sample_shift, structural ops timed on every occurrence).\n")
	bw.printf("# TYPE oak_op_latency_seconds histogram\n")
	for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
		s := r.OpSnapshot(op)
		var cum uint64
		for i := 0; i < telemetry.NumBuckets; i++ {
			cum += s.Hist.Buckets[i]
			bw.printf("oak_op_latency_seconds_bucket{op=%q,le=%q} %d\n",
				op.String(), formatLe(telemetry.BucketUpper(i)), cum)
		}
		bw.printf("oak_op_latency_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", op.String(), s.Hist.Count)
		bw.printf("oak_op_latency_seconds_sum{op=%q} %g\n", op.String(), float64(s.Hist.SumNanos)/1e9)
		bw.printf("oak_op_latency_seconds_count{op=%q} %d\n", op.String(), s.Hist.Count)
	}

	bw.printf("# HELP oak_ops_total Operations performed (hot ops: latency samples times 2^sample_shift; structural ops: exact).\n")
	bw.printf("# TYPE oak_ops_total counter\n")
	for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
		bw.printf("oak_ops_total{op=%q} %d\n", op.String(), r.OpSnapshot(op).Count)
	}

	bw.printf("# HELP oak_op_latency_max_seconds Largest latency observed per op.\n")
	bw.printf("# TYPE oak_op_latency_max_seconds gauge\n")
	for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
		bw.printf("oak_op_latency_max_seconds{op=%q} %g\n",
			op.String(), float64(r.OpSnapshot(op).Hist.MaxNanos)/1e9)
	}

	// Registered gauges, grouped by base family so each family gets one
	// TYPE line even when names carry labels.
	typed := map[string]bool{}
	for _, g := range r.Gauges() {
		base := g.Name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if !typed[base] {
			typed[base] = true
			kind := "gauge"
			if g.Kind == telemetry.KindCounter {
				kind = "counter"
			}
			bw.printf("# TYPE %s %s\n", base, kind)
		}
		bw.printf("%s %g\n", g.Name, g.Read())
	}

	bw.printf("# HELP oak_events_total Structural events appended to the flight recorder.\n")
	bw.printf("# TYPE oak_events_total counter\n")
	bw.printf("oak_events_total %d\n", r.EventSeq())
	return bw.err
}

// formatLe renders a bucket boundary the way Prometheus expects le
// values: seconds, shortest float form.
func formatLe(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// Handler serves WriteMetrics over HTTP — mount it at /metrics.
func Handler(r *telemetry.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, r)
	})
}

// Publish registers the recorder under name in the process-global
// expvar registry (visible at /debug/vars). Publishing the same name
// twice replaces the snapshot function instead of panicking the way raw
// expvar.Publish would.
func Publish(name string, r *telemetry.Recorder) {
	f := expvar.Func(func() any { return Snapshot(r) })
	if expvar.Get(name) != nil {
		// Already published (an earlier recorder, or a re-Publish of the
		// same one): expvar has no replace, so keep the existing binding
		// when it is ours. The common case — one recorder per process —
		// never reaches this branch.
		return
	}
	expvar.Publish(name, f)
}

// Snapshot is the expvar/JSON view of a recorder: per-op counts and
// quantiles, gauges, and the event sequence number.
func Snapshot(r *telemetry.Recorder) map[string]any {
	if r == nil {
		return map[string]any{"enabled": false}
	}
	ops := map[string]any{}
	for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
		s := r.OpSnapshot(op)
		ops[op.String()] = map[string]any{
			"count":   s.Count,
			"sampled": s.Hist.Count,
			"p50_ns":  int64(s.Hist.Quantile(0.50)),
			"p99_ns":  int64(s.Hist.Quantile(0.99)),
			"p999_ns": int64(s.Hist.Quantile(0.999)),
			"max_ns":  s.Hist.MaxNanos,
			"sum_ns":  s.Hist.SumNanos,
		}
	}
	gauges := map[string]float64{}
	for _, g := range r.Gauges() {
		gauges[g.Name] = g.Read()
	}
	return map[string]any{
		"enabled":    true,
		"ops":        ops,
		"gauges":     gauges,
		"events_seq": r.EventSeq(),
	}
}

// SummaryTable renders a human-readable per-op latency table (used by
// the cmd tools' periodic stderr summaries). Ops with zero count are
// omitted; the returned string ends with a newline when non-empty.
func SummaryTable(r *telemetry.Recorder) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	rows := make([]telemetry.OpStats, 0, telemetry.NumOps)
	for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
		if s := r.OpSnapshot(op); s.Count > 0 {
			rows = append(rows, s)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	for _, s := range rows {
		fmt.Fprintf(&b, "  %-14s count=%-10d p50=%-10v p99=%-10v max=%v\n",
			s.Op.String(), s.Count,
			s.Hist.Quantile(0.50), s.Hist.Quantile(0.99),
			time.Duration(s.Hist.MaxNanos))
	}
	return b.String()
}
