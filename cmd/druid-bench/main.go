// Command druid-bench regenerates the paper's Druid case study (Fig. 5):
// single-thread ingestion of synthetic multi-dimensional tuples into the
// Oak-backed incremental index (I²-Oak) versus the legacy skiplist-backed
// one (I²-legacy), measuring throughput as the dataset grows (5a), under
// a shrinking RAM budget (5b), and the RAM overhead relative to the raw
// data volume (5c).
//
// Examples:
//
//	druid-bench -fig 5a -tuples 100000,200000,400000
//	druid-bench -fig 5b -tuples 400000 -memlimits 64,96,128,256
//	druid-bench -fig 5c
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"strings"
	"time"

	"oakmap/internal/bench"
	"oakmap/internal/druid"
)

type row struct {
	scenario string
	index    string
	tuples   int
	kops     float64
	rawMB    float64
	heapMB   float64
	offMB    float64
	overhead float64 // (total - raw) / raw
}

func parseIntList(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			log.Fatalf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("druid-bench: ")
	var (
		figFlag    = flag.String("fig", "5a", "figure: 5a, 5b, 5c, or all")
		tuplesFlag = flag.String("tuples", "50000,100000,200000,400000", "tuple counts (Fig. 5a/5c); the last is used for 5b")
		memsFlag   = flag.String("memlimits", "48,64,96,128,192", "RAM budgets in MiB (Fig. 5b)")
		perBucket  = flag.Int("perbucket", 4, "tuples per timestamp bucket (rollup density)")
		rollup     = flag.Bool("rollup", true, "rollup index (false = plain)")
		limitFlag  = flag.Int64("memlimit", 512<<20, "fixed RAM budget for Fig. 5a/5c")
	)
	flag.Parse()

	tuples := parseIntList(*tuplesFlag)
	var memLimits []int64
	for _, m := range parseIntList(*memsFlag) {
		memLimits = append(memLimits, int64(m)<<20)
	}

	var rows []row
	figs := []string{*figFlag}
	if *figFlag == "all" {
		figs = []string{"5a", "5b", "5c"}
	}
	for _, f := range figs {
		switch f {
		case "5a":
			for _, n := range tuples {
				rows = append(rows, runBoth(fmt.Sprintf("5a-%dk", n/1000), n, *perBucket, *rollup, *limitFlag)...)
			}
		case "5b":
			n := tuples[len(tuples)-1]
			for _, lim := range memLimits {
				rows = append(rows, runBoth(fmt.Sprintf("5b-%dMiB", lim>>20), n, *perBucket, *rollup, lim)...)
			}
		case "5c":
			for _, n := range tuples {
				rows = append(rows, runBoth(fmt.Sprintf("5c-%dk", n/1000), n, *perBucket, *rollup, *limitFlag)...)
			}
		default:
			log.Fatalf("unknown figure %q", f)
		}
	}

	fmt.Println()
	fmt.Printf("%-14s %-11s %9s %10s %9s %9s %9s %9s\n",
		"SCENARIO", "INDEX", "TUPLES", "KOPS/S", "RAW(MB)", "HEAP(MB)", "OFF(MB)", "OVERHEAD")
	for _, r := range rows {
		fmt.Printf("%-14s %-11s %9d %10.1f %9.1f %9.1f %9.1f %8.1f%%\n",
			r.scenario, r.index, r.tuples, r.kops, r.rawMB, r.heapMB, r.offMB, r.overhead*100)
	}
}

func runBoth(scenario string, n, perBucket int, rollup bool, memLimit int64) []row {
	schema := druid.DefaultSchema(rollup)
	out := []row{
		runOne(scenario, "I2-Oak", n, perBucket, memLimit, func() ingester {
			idx, err := druid.NewIndex(schema, &druid.IndexOptions{BlockSize: 8 << 20})
			if err != nil {
				log.Fatal(err)
			}
			return idx
		}),
		runOne(scenario, "I2-legacy", n, perBucket, memLimit, func() ingester {
			idx, err := druid.NewLegacyIndex(schema)
			if err != nil {
				log.Fatal(err)
			}
			return idx
		}),
	}
	return out
}

type ingester interface {
	Ingest(druid.Tuple) error
	Rows() int64
	RawBytes() int64
	StoredDataBytes() int64
	Cardinality() int
	Close()
}

func runOne(scenario, name string, n, perBucket int, memLimit int64, mk func() ingester) row {
	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	idx := mk()
	offHeap := func() int64 { return 0 }
	if oak, ok := idx.(*druid.Index); ok {
		offHeap = oak.OffHeapBytes
	}
	gen := druid.NewTupleGen(42, perBucket, []int{1000, 100000}, 2)
	// The paper generates all input in advance to measure ingestion in
	// isolation (§6).
	input := make([]druid.Tuple, n)
	for i := range input {
		input[i] = gen.Next()
	}
	var elapsed time.Duration
	bench.WithMemoryLimit(memLimit, offHeap, func() {
		start := time.Now()
		for _, t := range input {
			if err := idx.Ingest(t); err != nil {
				log.Fatalf("%s ingest: %v", name, err)
			}
		}
		elapsed = time.Since(start)
	})
	input = nil
	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	r := row{
		scenario: scenario,
		index:    name,
		tuples:   n,
		kops:     float64(idx.Rows()) / elapsed.Seconds() / 1000,
		// "Raw data" is the inherent stored-data volume (keys + row
		// states); memory beyond it is overhead (Fig. 5c).
		rawMB: float64(idx.StoredDataBytes()) / (1 << 20),
	}
	// The index's RAM is its Go heap delta plus the arena blocks that
	// live outside the Go heap; blocks taken from the Go heap (non-Linux
	// and race builds) are already in the delta. The off-heap column is
	// the whole arena footprint, wherever its blocks live.
	heapUsed := max(float64(msAfter.HeapAlloc)-float64(msBefore.HeapAlloc), 0)
	r.heapMB = heapUsed / (1 << 20)
	r.offMB = float64(offHeap()) / (1 << 20)
	if r.rawMB > 0 {
		total := heapUsed + float64(bench.OutsideHeap(offHeap()))
		r.overhead = (total/(1<<20) - r.rawMB) / r.rawMB
	}
	log.Printf("%-14s %-11s %8d tuples %9.1f Kops/s  card=%d", scenario, name,
		n, r.kops, idx.Cardinality())
	idx.Close()
	return r
}
