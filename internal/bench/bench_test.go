package bench

import (
	"bytes"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/telemetry"
)

func smallOak() *OakTarget {
	return NewOak(&oakmap.Options{ChunkCapacity: 256, BlockSize: 1 << 20}, false)
}

func targetsForTest(t *testing.T) []Target {
	t.Helper()
	ts := []Target{
		smallOak(),
		NewOak(&oakmap.Options{ChunkCapacity: 256, BlockSize: 1 << 20}, true),
		NewOnHeap(),
		NewOffHeap(arena.NewPool(1<<20, 0)),
		NewBTree(arena.NewPool(1<<20, 0)),
	}
	t.Cleanup(func() {
		for _, tt := range ts {
			tt.Close()
		}
	})
	return ts
}

func TestKeyEncoderOrder(t *testing.T) {
	enc := NewKeyEncoder(32)
	a := enc.Encode(make([]byte, 32), 5)
	b := enc.Encode(make([]byte, 32), 6)
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("key encoding not order-preserving")
	}
	if len(a) != 32 {
		t.Fatalf("key size %d", len(a))
	}
	if len(NewKeyEncoder(4).Encode(make([]byte, 8), 1)) != 8 {
		t.Fatal("encoder must clamp to minimum 8 bytes")
	}
}

// TestTargetConformance drives every target through the same script and
// checks identical observable behaviour.
func TestTargetConformance(t *testing.T) {
	for _, target := range targetsForTest(t) {
		t.Run(target.Name(), func(t *testing.T) {
			enc := NewKeyEncoder(16)
			kb := make([]byte, 16)
			val := MakeValue(64, 42)

			if target.Get(enc.Encode(kb, 1)) {
				t.Fatal("get on empty")
			}
			if !target.PutIfAbsent(enc.Encode(kb, 1), val) {
				t.Fatal("first putIfAbsent")
			}
			if target.PutIfAbsent(enc.Encode(kb, 1), val) {
				t.Fatal("second putIfAbsent")
			}
			if !target.Get(enc.Encode(kb, 1)) {
				t.Fatal("get after put")
			}
			out, ok := target.GetCopy(enc.Encode(kb, 1), nil)
			if !ok || len(out) != 64 {
				t.Fatalf("GetCopy = %d bytes, %v", len(out), ok)
			}
			if !target.Compute(enc.Encode(kb, 1)) {
				t.Fatal("compute on present key")
			}
			out2, _ := target.GetCopy(enc.Encode(kb, 1), nil)
			if bytes.Equal(out, out2) {
				t.Fatal("compute did not change the value")
			}
			for i := 2; i <= 20; i++ {
				target.Put(enc.Encode(kb, uint64(i)), val)
			}
			if n := target.Scan(enc.Encode(kb, 5), 10, false); n != 10 {
				t.Fatalf("Scan visited %d", n)
			}
			if n := target.ScanDesc(enc.Encode(kb, 11), 5, false); n != 5 {
				t.Fatalf("ScanDesc visited %d", n)
			}
			target.Remove(enc.Encode(kb, 1))
			if target.Get(enc.Encode(kb, 1)) {
				t.Fatal("get after remove")
			}
			if target.Len() != 19 {
				t.Fatalf("Len = %d; want 19", target.Len())
			}
		})
	}
}

func TestIngestAndRun(t *testing.T) {
	cfg := Config{Threads: 2, KeyRange: 2000, KeySize: 16, ValueSize: 64,
		OpsPerThread: 2000, Seed: 3}
	for _, target := range targetsForTest(t) {
		res := Ingest(target, cfg)
		if res.Ops != 1000 { // 50% of the range
			t.Fatalf("%s: ingest ops = %d", target.Name(), res.Ops)
		}
		if res.KopsPerSec <= 0 || res.FinalSize != 1000 {
			t.Fatalf("%s: bad ingest result %+v", target.Name(), res)
		}
		r := Run(target, cfg, Mix95Get5Put)
		if r.Ops != 2*2000 {
			t.Fatalf("%s: run ops = %d", target.Name(), r.Ops)
		}
		if r.KopsPerSec <= 0 {
			t.Fatalf("%s: zero throughput", target.Name())
		}
	}
}

func TestRunScanMix(t *testing.T) {
	target := smallOak()
	defer target.Close()
	cfg := Config{Threads: 2, KeyRange: 3000, KeySize: 16, ValueSize: 32,
		OpsPerThread: 20, Seed: 5}
	Warm(target, cfg)
	for _, mix := range []Mix{MixScanAsc, MixScanAscStr, MixScanDesc, MixScanDescSt} {
		mix.ScanLen = 200
		r := Run(target, cfg, mix)
		if r.Ops != 40 {
			t.Fatalf("%s: ops = %d", mix.Name, r.Ops)
		}
	}
}

func TestDurationMode(t *testing.T) {
	target := smallOak()
	defer target.Close()
	cfg := Config{Threads: 2, KeyRange: 1000, KeySize: 16, ValueSize: 32,
		Duration: 50e6, Seed: 9} // 50ms
	Warm(target, cfg)
	r := Run(target, cfg, MixGet)
	if r.Ops == 0 {
		t.Fatal("duration mode made no progress")
	}
	if r.Seconds < 0.04 {
		t.Fatalf("run finished too early: %.3fs", r.Seconds)
	}
}

func TestCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	res := []Result{
		{Scenario: "3b-ingest-64MiB", Target: "Oak", Threads: 1, FinalSize: 100, KopsPerSec: 1234.5, MemLimit: 64 << 20},
		{Scenario: "3b-ingest-96MiB", Target: "Oak", Threads: 1, FinalSize: 100, KopsPerSec: 1234.5, MemLimit: 96 << 20},
		{Scenario: "4a-put", Target: "Oak", Threads: 4, FinalSize: 100, KopsPerSec: 1234.5},
	}
	if err := WriteCSV(&buf, res, "20g"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Scenario,Bench,") {
		t.Fatalf("missing header: %q", out)
	}
	// Each row carries its own budget; a row run under none leaves it empty.
	for _, row := range []string{
		"3b-ingest-64MiB,Oak,64m,20g,1,100,1.234500",
		"3b-ingest-96MiB,Oak,96m,20g,1,100,1.234500",
		"4a-put,Oak,,20g,4,100,1.234500",
	} {
		if !strings.Contains(out, row+"\n") {
			t.Fatalf("missing row %q in %q", row, out)
		}
	}
	buf.Reset()
	if err := WriteTable(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Oak") {
		t.Fatal("table missing target")
	}
}

func TestWithMemoryLimit(t *testing.T) {
	p := arena.NewPool(1<<20, 0)
	a := arena.NewAllocator(p) // maps blocks where this build can
	defer a.Close()
	if _, err := a.Alloc(64); err != nil {
		t.Fatal(err)
	}
	prev := debug.SetMemoryLimit(-1)
	ran := false
	WithMemoryLimit(1<<30, a.Footprint, func() {
		ran = true
		if got, want := debug.SetMemoryLimit(-1), int64(1<<30)-OutsideHeap(a.Footprint()); got != want {
			t.Errorf("Go limit %d inside the budget, want %d", got, want)
		}
	})
	if !ran {
		t.Fatal("callback not run")
	}
	if got := debug.SetMemoryLimit(-1); got != prev {
		t.Fatalf("Go limit %d after the run, want %d restored", got, prev)
	}
}

func TestZipfDistribution(t *testing.T) {
	cfg := Config{KeyRange: 1000, ZipfS: 1.5, Seed: 1}.withDefaults()
	next := cfg.keyChooser(3)
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		k := next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Skewed: key 0 must be far hotter than the median key.
	if counts[0] < 2000 {
		t.Fatalf("zipf head count = %d; distribution not skewed", counts[0])
	}
	// Uniform for comparison.
	cfg.ZipfS = 0
	next = cfg.keyChooser(3)
	counts = map[uint64]int{}
	for i := 0; i < 20000; i++ {
		counts[next()]++
	}
	if counts[0] > 100 {
		t.Fatalf("uniform head count = %d; too hot", counts[0])
	}
}

func TestRunMedian(t *testing.T) {
	target := smallOak()
	defer target.Close()
	cfg := Config{Threads: 1, KeyRange: 500, KeySize: 16, ValueSize: 32,
		OpsPerThread: 500, Seed: 2}
	Warm(target, cfg)
	r := RunMedian(target, cfg, MixGet, 3)
	if r.Ops != 500 || r.KopsPerSec <= 0 {
		t.Fatalf("median result %+v", r)
	}
}

func TestRunZipfMix(t *testing.T) {
	target := smallOak()
	defer target.Close()
	cfg := Config{Threads: 2, KeyRange: 2000, KeySize: 16, ValueSize: 64,
		OpsPerThread: 2000, Seed: 4, ZipfS: 1.2}
	Warm(target, cfg)
	r := Run(target, cfg, Mix95Get5Put)
	if r.Ops != 4000 {
		t.Fatalf("zipf run ops = %d", r.Ops)
	}
}

func TestWritePlotData(t *testing.T) {
	dir := t.TempDir()
	res := []Result{
		{Scenario: "4a-put", Target: "Oak", Threads: 1, KopsPerSec: 100},
		{Scenario: "4a-put", Target: "Oak", Threads: 2, KopsPerSec: 180},
		{Scenario: "4a-put", Target: "SkipList-OnHeap", Threads: 1, KopsPerSec: 50},
		{Scenario: "weird/name:x", Target: "Oak", Threads: 1, KopsPerSec: 1},
	}
	if err := WritePlotData(dir, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/4a-put.dat")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, "# Oak") || !strings.Contains(s, "# SkipList-OnHeap") {
		t.Fatalf("missing target blocks:\n%s", s)
	}
	if !strings.Contains(s, "2 180.000") {
		t.Fatalf("missing data row:\n%s", s)
	}
	if _, err := os.Stat(dir + "/weird_name_x.dat"); err != nil {
		t.Fatalf("sanitized filename missing: %v", err)
	}
}

// TestHistogramBasics checks the histogram bench.Run records into: the
// recorder's AtomicHist, read through a merged HistSnapshot.
func TestHistogramBasics(t *testing.T) {
	var h telemetry.AtomicHist
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Count != 0 {
		t.Fatal("empty histogram")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	p50 := s.Quantile(0.5)
	if p50 < 300*time.Microsecond || p50 > 900*time.Microsecond {
		t.Fatalf("p50 = %v; want ≈500µs within bucket error", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < p50 {
		t.Fatal("p99 < p50")
	}
	if time.Duration(s.MaxNanos) != time.Millisecond || s.Quantile(1) != time.Millisecond {
		t.Fatalf("max = %v, q1 = %v", time.Duration(s.MaxNanos), s.Quantile(1))
	}
	// Merge adds the counts and keeps the maximum.
	var h2 telemetry.AtomicHist
	h2.Observe(time.Nanosecond)
	h2.Observe(10 * time.Second)
	s.Merge(h2.Snapshot())
	if s.Count != 1002 || time.Duration(s.MaxNanos) != 10*time.Second {
		t.Fatalf("merge: count %d, max %v", s.Count, time.Duration(s.MaxNanos))
	}
}

func TestRunWithLatencySampling(t *testing.T) {
	target := smallOak()
	defer target.Close()
	cfg := Config{Threads: 2, KeyRange: 1000, KeySize: 16, ValueSize: 64,
		OpsPerThread: 5000, Seed: 6, SampleLatency: true}
	Warm(target, cfg)
	r := Run(target, cfg, Mix95Get5Put)
	if r.P50 <= 0 || r.P99 < r.P50 || r.P999 < r.P99 || r.PMax < r.P999 {
		t.Fatalf("latency percentiles not monotone: %v %v %v %v",
			r.P50, r.P99, r.P999, r.PMax)
	}
}
