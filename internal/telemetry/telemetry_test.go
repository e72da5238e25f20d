package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCounterHammer drives 64 goroutines through a shared Counter (and a
// shared recorder's histogram, every op sampled so its count is exact)
// while a reader merges stripes concurrently. The final merged value
// must be exact; intermediate reads must be monotone non-decreasing (a
// weak snapshot never goes backwards when every write is an increment).
func TestCounterHammer(t *testing.T) {
	const (
		writers = 64
		perG    = 10_000
	)
	var c Counter
	r := New(Config{SampleShift: -1, EventBuffer: 64})

	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last int64
		for !stop.Load() {
			v := c.Load()
			if v < last {
				t.Errorf("Counter.Load went backwards: %d after %d", v, last)
				return
			}
			last = v
			// Concurrent snapshots are weak (buckets and count are
			// independent atomics); the merge path just has to be
			// race-clean — the exact invariants are asserted on the
			// quiesced snapshot below.
			_ = r.OpSnapshot(OpGet)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				tk := r.Op(OpGet, uint64(i))
				tk.Done()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-readerDone

	if got := c.Load(); got != writers*perG {
		t.Fatalf("Counter.Load = %d, want %d", got, writers*perG)
	}
	s := r.OpSnapshot(OpGet)
	if s.Count != writers*perG || s.Hist.Count != writers*perG {
		t.Fatalf("op count = %d, samples = %d, want %d", s.Count, s.Hist.Count, writers*perG)
	}
}

// TestHistogramMergeMatchesSequential checks that merging per-goroutine
// histograms' snapshots equals one histogram fed everything.
func TestHistogramMergeMatchesSequential(t *testing.T) {
	const parts = 8
	var whole AtomicHist
	shards := make([]AtomicHist, parts)
	d := 50 * time.Nanosecond
	for i := 0; i < 4096; i++ {
		d += time.Duration(i) * time.Microsecond / 7
		whole.Observe(d)
		shards[i%parts].Observe(d)
	}
	var merged HistSnapshot
	for i := range shards {
		merged.Merge(shards[i].Snapshot())
	}
	if w := whole.Snapshot(); merged != w {
		t.Fatalf("merged snapshot %+v != whole %+v", merged, w)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if m, w := merged.Quantile(q), whole.Snapshot().Quantile(q); m != w {
			t.Fatalf("q%.2f: merged %v != whole %v", q, m, w)
		}
	}
}

// TestAtomicHistSnapshotMerge checks HistSnapshot.Merge across two
// histograms with disjoint ranges.
func TestAtomicHistSnapshotMerge(t *testing.T) {
	var a, b AtomicHist
	for i := 1; i <= 1000; i++ {
		a.Observe(time.Duration(i) * time.Microsecond)
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != sa.Count+sb.Count {
		t.Fatalf("merged count %d", merged.Count)
	}
	if merged.SumNanos != sa.SumNanos+sb.SumNanos {
		t.Fatalf("merged sum %d", merged.SumNanos)
	}
	if merged.MaxNanos != sb.MaxNanos {
		t.Fatalf("merged max %d, want %d", merged.MaxNanos, sb.MaxNanos)
	}
}

// TestRecorderNilSafety exercises every Recorder method on nil: none may
// panic and the reads must return zero values.
func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	tk := r.Op(OpGet, 0)
	tk.Done()
	sp := r.Span(OpRebalance)
	sp.Done()
	r.Event(EvEpochAdvance, 1, 2, 3)
	if r.Events() != nil || r.EventSeq() != 0 {
		t.Fatal("nil recorder has events")
	}
	if s := r.OpSnapshot(OpGet); s.Count != 0 || s.Hist.Count != 0 {
		t.Fatal("nil recorder has op stats")
	}
	if r.Snapshot() != nil || r.Gauges() != nil {
		t.Fatal("nil recorder has snapshots")
	}
	r.RegisterGauge("x", KindGauge, func() float64 { return 1 })
}

// TestSampling checks the 1-in-2^shift contract: with shift s, a run of
// n hot ops numbered 1..n times exactly n/2^s of them and reports n as
// the count, while structural spans count every call; with a negative
// shift every call is timed.
func TestSampling(t *testing.T) {
	r := New(Config{SampleShift: 4})
	const n = 1 << 12
	for i := 1; i <= n; i++ {
		tk := r.Op(OpPut, uint64(i))
		tk.Done()
	}
	s := r.OpSnapshot(OpPut)
	if want := uint64(n >> 4); s.Hist.Count != want {
		t.Fatalf("sampled %d, want %d", s.Hist.Count, want)
	}
	if s.Count != n {
		t.Fatalf("count %d, want %d", s.Count, n)
	}
	for i := 0; i < 3; i++ {
		sp := r.Span(OpRebalance)
		sp.Done()
	}
	if s := r.OpSnapshot(OpRebalance); s.Count != 3 || s.Hist.Count != 3 {
		t.Fatalf("span count %d, samples %d, want 3", s.Count, s.Hist.Count)
	}

	// Negative shift: every call timed.
	r2 := New(Config{SampleShift: -1})
	for i := 0; i < 100; i++ {
		tk := r2.Op(OpGet, uint64(i))
		tk.Done()
	}
	if s2 := r2.OpSnapshot(OpGet); s2.Hist.Count != 100 || s2.Count != 100 {
		t.Fatalf("shift<0 sampled %d, count %d, want 100", s2.Hist.Count, s2.Count)
	}
}

// TestGaugeRegistry checks replace-on-same-name and sorted enumeration.
func TestGaugeRegistry(t *testing.T) {
	r := New(Config{})
	r.RegisterGauge("b", KindGauge, func() float64 { return 1 })
	r.RegisterGauge("a", KindCounter, func() float64 { return 2 })
	r.RegisterGauge("b", KindGauge, func() float64 { return 3 })
	gs := r.Gauges()
	if len(gs) != 2 || gs[0].Name != "a" || gs[1].Name != "b" {
		t.Fatalf("gauges = %+v", gs)
	}
	if gs[1].Read() != 3 {
		t.Fatal("re-register did not replace")
	}
}
