package oakmap

import (
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestTelemetryNilReceiver pins the facade's contract: every exported
// method of *Telemetry is callable on a nil receiver and degrades to its
// empty form. Tools that thread an optional scope (oak-stress,
// oak-server) call these unconditionally in their reporting paths, so a
// method that panics on nil is a regression even if it "works" when
// telemetry is attached.
func TestTelemetryNilReceiver(t *testing.T) {
	var tel *Telemetry

	if evs := tel.DumpEvents(); evs != nil {
		t.Errorf("DumpEvents on nil scope: got %d events, want nil", len(evs))
	}
	if n := tel.EventCount(); n != 0 {
		t.Errorf("EventCount on nil scope: got %d, want 0", n)
	}
	if s := tel.Summary(); s != "" {
		t.Errorf("Summary on nil scope: got %q, want empty", s)
	}

	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Errorf("WriteMetrics on nil scope: %v", err)
	}
	if !strings.Contains(sb.String(), "disabled") {
		t.Errorf("WriteMetrics on nil scope should say disabled, got %q", sb.String())
	}

	h := tel.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body), "disabled") {
		t.Errorf("nil-scope /metrics should say disabled, got %q", body)
	}

	// Registration and publication are no-ops on a nil scope.
	tel.RegisterGauge("oak_test_nil_gauge", false, func() float64 { return 1 })
	tel.PublishExpvar("oak_test_nil_scope")
}

// TestShardedFragmentationGauge pins the sharded gauge set's parity
// with the plain map's: oak_arena_fragmentation_ratio must be exported
// for a sharded map too (it was dropped from the sharded registration
// once), and it must report the same rollup as Stats().Fragmentation.
// One shard is emptied while the others keep their data, so a rollup that
// weighted shards by anything but footprint would read differently.
func TestShardedFragmentationGauge(t *testing.T) {
	tel := NewTelemetry(nil)
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{Shards: 3, ChunkCapacity: 32, BlockSize: 1 << 20, Telemetry: tel})
	defer m.Close()
	zc := m.ZC()
	for i := uint64(0); i < 200; i++ {
		if err := zc.Put(i, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 200; i++ {
		kb := m.serializeKey(i)
		emptied := m.s.ShardIndex(*kb) == 0
		m.releaseKey(kb)
		if emptied || i%5 == 0 {
			if err := zc.Remove(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Quiesce()

	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var gauge string
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "oak_arena_fragmentation_ratio "); ok {
			gauge = v
		}
	}
	if gauge == "" {
		t.Fatalf("sharded map exposition lacks oak_arena_fragmentation_ratio:\n%s", out)
	}
	got, err := strconv.ParseFloat(gauge, 64)
	if err != nil || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("fragmentation rollup not finite: %q", gauge)
	}
	want := m.Stats().Fragmentation
	if want <= 0 {
		t.Fatalf("Stats().Fragmentation = %v: the removes left no free-list bytes to weigh", want)
	}
	if got != want {
		t.Fatalf("oak_arena_fragmentation_ratio = %v, Stats().Fragmentation = %v", got, want)
	}
}

// TestTelemetryRegisterGauge covers the live side of the facade's gauge
// hook: a registered read-out (plain and labeled/counter) appears in the
// exposition.
func TestTelemetryRegisterGauge(t *testing.T) {
	tel := NewTelemetry(nil)
	tel.RegisterGauge("oak_test_plain", false, func() float64 { return 4.5 })
	tel.RegisterGauge(`oak_test_labeled_total{kind="a"}`, true, func() float64 { return 7 })

	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "oak_test_plain 4.5") {
		t.Errorf("plain gauge missing from exposition:\n%s", out)
	}
	if !strings.Contains(out, `oak_test_labeled_total{kind="a"} 7`) {
		t.Errorf("labeled counter missing from exposition:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE oak_test_labeled_total counter") {
		t.Errorf("counter TYPE line missing:\n%s", out)
	}
}
