package export

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"oakmap/internal/telemetry"
)

func populated() *telemetry.Recorder {
	r := telemetry.New(telemetry.Config{SampleShift: -1, EventBuffer: 16})
	for i := 0; i < 100; i++ {
		tk := r.Op(telemetry.OpGet, uint64(i))
		tk.Done()
	}
	sp := r.Span(telemetry.OpRebalance)
	time.Sleep(time.Microsecond)
	sp.Done()
	r.RegisterGauge("oak_len", telemetry.KindGauge, func() float64 { return 42 })
	r.RegisterGauge(`oak_arena_class_spans{class="64"}`, telemetry.KindGauge, func() float64 { return 3 })
	r.RegisterGauge(`oak_arena_class_spans{class="128"}`, telemetry.KindGauge, func() float64 { return 1 })
	r.Event(telemetry.EvEpochAdvance, 7, 0, 0)
	return r
}

// TestWriteMetricsFormat checks structural validity of the Prometheus
// text exposition: every non-comment line is `name{labels} value` or
// `name value`, histogram buckets are cumulative and end in +Inf, TYPE
// lines appear once per family and before the family's samples.
func TestWriteMetricsFormat(t *testing.T) {
	r := populated()
	var sb strings.Builder
	if err := WriteMetrics(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	typeSeen := map[string]bool{}
	var prevBucket uint64
	var sawInf bool
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if typeSeen[fields[2]] {
				t.Fatalf("duplicate TYPE for %s", fields[2])
			}
			typeSeen[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("sample line must be `name value`: %q", line)
		}
		base := fields[0]
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			base = base[:i]
		}
		// Histogram sub-series share the family's TYPE line.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if typeSeen[strings.TrimSuffix(base, suf)] {
				base = strings.TrimSuffix(base, suf)
				break
			}
		}
		if !typeSeen[base] {
			t.Fatalf("sample %q precedes (or lacks) its TYPE line", line)
		}

		if strings.HasPrefix(line, `oak_op_latency_seconds_bucket{op="get",`) {
			cum, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value %q: %v", fields[1], err)
			}
			if cum < prevBucket {
				t.Fatalf("buckets not cumulative: %d after %d (%q)", cum, prevBucket, line)
			}
			prevBucket = cum
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
				if cum != 100 {
					t.Fatalf("+Inf bucket = %d, want 100", cum)
				}
			}
		}
	}
	if !sawInf {
		t.Fatal("get histogram has no +Inf bucket")
	}
	for _, want := range []string{
		`oak_op_latency_seconds_count{op="get"} 100`,
		`oak_ops_total{op="get"} 100`,
		`oak_ops_total{op="rebalance"} 1`,
		"oak_len 42",
		`oak_arena_class_spans{class="64"} 3`,
		"oak_events_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q\n%s", want, out)
		}
	}
	// Labeled family: one TYPE line covers both class samples.
	if strings.Count(out, "# TYPE oak_arena_class_spans ") != 1 {
		t.Fatal("labeled gauge family must get exactly one TYPE line")
	}
}

// TestHandler checks the HTTP surface: status, content type, body.
func TestHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(populated()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "oak_op_latency_seconds_bucket") {
		t.Fatal("body lacks histogram samples")
	}
}

// TestWriteMetricsDisabled: a nil recorder writes a comment, not samples.
func TestWriteMetricsDisabled(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetrics(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "#") {
		t.Fatalf("disabled output should be a comment: %q", sb.String())
	}
}

// TestSnapshot checks the expvar JSON view.
func TestSnapshot(t *testing.T) {
	s := Snapshot(populated())
	if s["enabled"] != true {
		t.Fatal("enabled != true")
	}
	ops := s["ops"].(map[string]any)
	get := ops["get"].(map[string]any)
	if get["count"].(uint64) != 100 {
		t.Fatalf("get count = %v", get["count"])
	}
	if Snapshot(nil)["enabled"] != false {
		t.Fatal("nil snapshot should report disabled")
	}
}

// TestSummaryTable: ops with zero count are omitted, non-zero appear.
func TestSummaryTable(t *testing.T) {
	out := SummaryTable(populated())
	if !strings.Contains(out, "get") || !strings.Contains(out, "rebalance") {
		t.Fatalf("summary missing ops:\n%s", out)
	}
	if strings.Contains(out, "arena_compact") {
		t.Fatal("summary includes zero-count op")
	}
	if SummaryTable(nil) != "" {
		t.Fatal("nil summary should be empty")
	}
}
