package druid

import (
	"errors"
	"math"
	"sync"
	"testing"

	"oakmap/internal/core"
)

// TestQueryAtomicUnderIngest: queries scan a map snapshot, so a result
// is an atomic picture of the index. The ingester alternates strictly
// between two dimension values, keeping their counts within 1 of each
// other at every instant; a query that mixed row states from different
// instants (the old live stream scan) would routinely observe the
// early-scanned group far behind the late-scanned one.
func TestQueryAtomicUnderIngest(t *testing.T) {
	schema := Schema{
		Dimensions:  []string{"d"},
		Metrics:     []string{"m"},
		Aggregators: []AggregatorSpec{{Kind: AggCount}},
		Rollup:      true,
	}
	idx, err := NewIndex(schema, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)

	// Registered after the index's cleanup, so it runs first: a failing
	// round stops and waits for the writer before the index closes, and
	// the failure is not buried under the writer's use of a closed map.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(halt)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Strict alternation: after any prefix, |count(a)-count(b)| ≤ 1.
			dim := "a"
			if i%2 == 1 {
				dim = "b"
			}
			if err := idx.Ingest(Tuple{Timestamp: 5, Dims: []string{dim}, Metrics: []float64{1}}); err != nil {
				if !errors.Is(err, core.ErrClosed) {
					t.Errorf("background ingest: %v", err)
				}
				return
			}
		}
	}()

	for round := 0; round < 200; round++ {
		groups := idx.GroupBy(0, 0, 100)
		counts := map[string]float64{}
		for _, g := range groups {
			counts[g.DimValue] = g.Aggs[0]
		}
		if math.Abs(counts["a"]-counts["b"]) > 1 {
			t.Fatalf("round %d: non-atomic query: count(a)=%v count(b)=%v",
				round, counts["a"], counts["b"])
		}
		// Timeseries rides the same snapshot-scanned path: the single
		// bucket's count must equal the groupBy total of a later (hence
		// no smaller) snapshot.
		total := counts["a"] + counts["b"]
		ts := idx.Timeseries(0, 100, 100, 0)
		if len(ts) != 1 || ts[0] < total {
			t.Fatalf("round %d: timeseries %v went backwards vs groupBy total %v", round, ts, total)
		}
	}
	halt()

	// No snapshot leaked from the query path.
	if st := idx.oak.Stats(); st.OpenSnapshots != 0 || st.RetainedBytes != 0 {
		t.Fatalf("query path leaked snapshot state: OpenSnapshots=%d RetainedBytes=%d",
			st.OpenSnapshots, st.RetainedBytes)
	}
}
