// Command oak-bench regenerates the paper's evaluation. Figs. 3 and 4 run
// the synchrobench-equivalent harness over the compared solutions — Oak
// (ZC and legacy APIs), SkipList-OnHeap and SkipList-OffHeap — and print
// both a human-readable table and the artifact's summary.csv layout.
// Fig. 5 is the Druid case study: single-thread ingestion of synthetic
// multi-dimensional tuples into the Oak-backed incremental index (I²-Oak)
// versus the legacy skiplist-backed one (I²-legacy), measuring throughput
// as the dataset grows (5a), under a shrinking RAM budget (5b), and the
// RAM overhead relative to the raw data volume (5c).
//
// Scaled-down defaults finish in minutes on a laptop; raise -size,
// -duration, -threads and -tuples to approach the paper's AWS
// configuration.
//
// Examples:
//
//	oak-bench -fig 4a -threads 1,2,4,8 -duration 2s
//	oak-bench -fig 3a -memlimit 268435456
//	oak-bench -fig 5b -tuples 300000 -memlimits 160,192,256
//	oak-bench -fig all -out summary.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/bench"
	"oakmap/internal/druid"
)

// The Druid tuple shape of Fig. 5: tuples per timestamp bucket (the
// rollup density) and a rollup index.
const (
	tuplesPerBucket = 4
	rollup          = true
)

type options struct {
	fig        string
	threads    []int
	size       int
	keySize    int
	valueSize  int
	duration   time.Duration
	memLimit   int64
	sizes      []int
	memLimits  []int64
	tuples     []int
	out        string
	blockSize  int
	iterations int
	zipf       float64
	btree      bool
	latency    bool
	tel        *oakmap.Telemetry
}

// parseIntList parses the comma-separated integers of flag name, and
// exits on a malformed one.
func parseIntList(name, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad -%s: %v", name, err)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oak-bench: ")
	var (
		figFlag       = flag.String("fig", "4a", "figure to reproduce: 3a, 3b, 4a, 4b, 4c, 4d, 4e, 4f, 5a, 5b, 5c, or all")
		threadsFlag   = flag.String("threads", "1,2,4,8", "comma-separated worker thread counts (Fig. 4)")
		sizeFlag      = flag.Int("size", 100000, "key range (paper: 10M)")
		keySizeFlag   = flag.Int("keysize", 100, "serialized key size in bytes")
		valueSizeFlag = flag.Int("valuesize", 1024, "serialized value size in bytes")
		durationFlag  = flag.Duration("duration", 2*time.Second, "sustained-stage duration per data point (paper: 30s)")
		memLimitFlag  = flag.Int64("memlimit", 512<<20, "RAM budget in bytes for Figs. 3a, 5a and 5c (stand-in for -Xmx)")
		sizesFlag     = flag.String("sizes", "25000,50000,100000,200000", "dataset sizes for Fig. 3a")
		memsFlag      = flag.String("memlimits", "64,96,128,192,256,384", "RAM budgets in MiB for Figs. 3b and 5b")
		tuplesFlag    = flag.String("tuples", "50000,100000,200000,400000", "Druid tuple counts for Figs. 5a/5c; the last is used for 5b")
		outFlag       = flag.String("out", "", "also write the Figs. 3-4 summary.csv to this path")
		blockFlag     = flag.Int("blocksize", 8<<20, "off-heap block size in bytes (paper: 100MB)")
		iterFlag      = flag.Int("iterations", 1, "median-of-N iterations per data point (artifact: 3)")
		btreeFlag     = flag.Bool("btree", false, "include the BTree-OffHeap (MapDB stand-in) baseline")
		plotFlag      = flag.String("plotdata", "", "write per-scenario gnuplot .dat files (Figs. 3-4) to this directory")
		latencyFlag   = flag.Bool("latency", false, "sample op latencies and report P50/P99/P99.9/max (Fig. 4 scenarios)")
		zipfFlag      = flag.Float64("zipf", 0, "Zipf skew for key sampling (>1 enables; 0 = uniform)")
		telFlag       = flag.Bool("telemetry", false, "attach the telemetry layer to the Oak targets and print its op-latency summary at exit")
	)
	flag.Parse()

	opt := options{
		fig: *figFlag, threads: parseIntList("threads", *threadsFlag),
		size: *sizeFlag, keySize: *keySizeFlag, valueSize: *valueSizeFlag,
		duration: *durationFlag, memLimit: *memLimitFlag,
		sizes: parseIntList("sizes", *sizesFlag), tuples: parseIntList("tuples", *tuplesFlag),
		out: *outFlag, blockSize: *blockFlag,
		iterations: *iterFlag, zipf: *zipfFlag, btree: *btreeFlag,
		latency: *latencyFlag,
	}
	if *telFlag {
		opt.tel = oakmap.NewTelemetry(nil)
	}
	for _, m := range parseIntList("memlimits", *memsFlag) {
		opt.memLimits = append(opt.memLimits, int64(m)<<20)
	}

	var (
		results []bench.Result
		rows    []druidRow
	)
	figs := []string{opt.fig}
	if opt.fig == "all" {
		// 5a lists 5c's rows too: both figures come from the same ingests.
		figs = []string{"3a", "3b", "4a", "4b", "4c", "4d", "4e", "4f", "5a", "5b"}
	}
	for _, f := range figs {
		switch f {
		case "3a":
			results = append(results, fig3a(opt)...)
		case "3b":
			results = append(results, fig3b(opt)...)
		case "4a", "4b", "4c", "4d", "4e", "4f":
			results = append(results, fig4(opt, f)...)
		case "5a", "5c":
			rows = append(rows, fig5ac(opt)...)
		case "5b":
			rows = append(rows, fig5b(opt)...)
		default:
			log.Fatalf("unknown figure %q", f)
		}
	}

	if len(results) > 0 {
		fmt.Println()
		if err := bench.WriteTable(os.Stdout, results); err != nil {
			log.Fatal(err)
		}
	}
	if len(rows) > 0 {
		fmt.Println()
		writeDruidTable(rows)
	}
	if opt.out != "" {
		fd, err := os.Create(opt.out)
		if err != nil {
			log.Fatal(err)
		}
		defer fd.Close()
		if err := bench.WriteCSV(fd, results, "shared-pool"); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", opt.out)
	}
	if *plotFlag != "" {
		if err := bench.WritePlotData(*plotFlag, results); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote plot data to %s/", *plotFlag)
	}
	if opt.tel != nil {
		// Aggregated across every Oak target the sweep constructed; the
		// summary separates op classes, not targets.
		fmt.Printf("\ntelemetry op latency (sampled, all Oak targets):\n%s", opt.tel.Summary())
		fmt.Printf("flight recorder events: %d\n", opt.tel.EventCount())
	}
	_ = bench.Sink()
}

func newOak(opt options, copyAPI bool) bench.Target {
	return bench.NewOak(&oakmap.Options{BlockSize: opt.blockSize, Telemetry: opt.tel}, copyAPI)
}

// newTargets builds one fresh instance of each compared solution. Fresh
// pools per target keep Fig. 3's memory accounting honest.
func newTargets(opt options) []bench.Target {
	ts := []bench.Target{
		newOak(opt, false),
		bench.NewOnHeap(),
		bench.NewOffHeap(arena.NewPool(opt.blockSize, 0)),
	}
	if opt.btree {
		ts = append(ts, bench.NewBTree(arena.NewPool(opt.blockSize, 0)))
	}
	return ts
}

func baseConfig(opt options) bench.Config {
	return bench.Config{
		KeyRange:      opt.size,
		KeySize:       opt.keySize,
		ValueSize:     opt.valueSize,
		Duration:      opt.duration,
		Seed:          uint64(time.Now().UnixNano()),
		ZipfS:         opt.zipf,
		SampleLatency: opt.latency,
	}
}

// fig3a: single-thread ingestion throughput as the dataset grows under a
// fixed RAM budget.
func fig3a(opt options) []bench.Result {
	var out []bench.Result
	for _, size := range opt.sizes {
		cfg := baseConfig(opt)
		cfg.KeyRange = size
		cfg.WarmFraction = 1.0 // Fig. 3 ingests the whole dataset
		for _, t := range newTargets(opt) {
			var r bench.Result
			bench.WithMemoryLimit(opt.memLimit, t.OffHeapBytes, func() {
				runtime.GC()
				r = bench.Ingest(t, cfg)
			})
			r.Scenario, r.MemLimit = fmt.Sprintf("3a-ingest-%dk", size/1000), opt.memLimit
			log.Printf("%-22s %-18s %8.1f Kops/s (heap %.0fMB, offheap %.0fMB, %d GCs)",
				r.Scenario, r.Target, r.KopsPerSec,
				float64(r.HeapBytes)/(1<<20), float64(r.OffHeapBytes)/(1<<20), r.NumGC)
			out = append(out, r)
			t.Close()
		}
	}
	return out
}

// fig3b: single-thread ingestion of a fixed dataset under shrinking RAM.
func fig3b(opt options) []bench.Result {
	var out []bench.Result
	for _, limit := range opt.memLimits {
		cfg := baseConfig(opt)
		cfg.WarmFraction = 1.0
		for _, t := range newTargets(opt) {
			var r bench.Result
			bench.WithMemoryLimit(limit, t.OffHeapBytes, func() {
				runtime.GC()
				r = bench.Ingest(t, cfg)
			})
			r.Scenario, r.MemLimit = fmt.Sprintf("3b-ingest-%dMiB", limit>>20), limit
			log.Printf("%-22s %-18s %8.1f Kops/s (%d GCs)",
				r.Scenario, r.Target, r.KopsPerSec, r.NumGC)
			out = append(out, r)
			t.Close()
		}
	}
	return out
}

var fig4Mixes = map[string][]bench.Mix{
	"4a": {bench.MixPut},
	"4b": {bench.MixCompute},
	"4c": {bench.MixGet, bench.MixGetCopy},
	"4d": {bench.Mix95Get5Put},
	"4e": {bench.MixScanAsc, bench.MixScanAscStr},
	"4f": {bench.MixScanDesc, bench.MixScanDescSt},
}

// fig4 runs one panel of Fig. 4 across the thread sweep. The copy-get
// mix applies only to Oak's copying API and the stream mixes only to
// Oak; every other mix runs on each compared solution.
func fig4(opt options, fig string) []bench.Result {
	var out []bench.Result
	for _, mix := range fig4Mixes[fig] {
		for _, n := range opt.threads {
			cfg := baseConfig(opt)
			cfg.Threads = n
			var targets []bench.Target
			switch {
			case mix.CopyGet:
				targets = []bench.Target{newOak(opt, true)}
			case mix.Stream:
				targets = []bench.Target{newOak(opt, false)}
			default:
				targets = newTargets(opt)
			}
			for _, t := range targets {
				bench.Warm(t, cfg)
				r := bench.RunMedian(t, cfg, mix, opt.iterations)
				r.Scenario = fig + "-" + mix.Name
				log.Printf("%-26s %-18s t=%-3d %10.1f Kops/s",
					r.Scenario, r.Target, n, r.KopsPerSec)
				out = append(out, r)
				t.Close()
			}
		}
	}
	return out
}

// druidRow is one Fig. 5 ingest of one I² implementation.
type druidRow struct {
	scenario string
	index    string
	tuples   int
	kops     float64
	rawMB    float64
	heapMB   float64
	offMB    float64
	overhead float64 // (total - raw) / raw
}

// fig5ac ingests each tuple count once under the fixed budget: the rows'
// throughput is Fig. 5a and their overhead column is Fig. 5c.
func fig5ac(opt options) []druidRow {
	var out []druidRow
	for _, n := range opt.tuples {
		out = append(out, ingestBoth(opt, fmt.Sprintf("5a/5c-%dk", n/1000), n, opt.memLimit)...)
	}
	return out
}

// fig5b ingests the largest tuple count under each RAM budget.
func fig5b(opt options) []druidRow {
	var out []druidRow
	n := opt.tuples[len(opt.tuples)-1]
	for _, lim := range opt.memLimits {
		out = append(out, ingestBoth(opt, fmt.Sprintf("5b-%dMiB", lim>>20), n, lim)...)
	}
	return out
}

func ingestBoth(opt options, scenario string, n int, memLimit int64) []druidRow {
	return []druidRow{
		ingestOne(opt, scenario, true, n, memLimit),
		ingestOne(opt, scenario, false, n, memLimit),
	}
}

type ingester interface {
	Ingest(druid.Tuple) error
	Rows() int64
	StoredDataBytes() int64
	Cardinality() int
	Close()
}

// ingestOne ingests n tuples into a fresh I²-Oak (oak) or I²-legacy
// index under memLimit.
func ingestOne(opt options, scenario string, oak bool, n int, memLimit int64) druidRow {
	settleHeap()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	schema := druid.DefaultSchema(rollup)
	name, offHeap := "I2-legacy", func() int64 { return 0 }
	var idx ingester
	if oak {
		oakIdx, err := druid.NewIndex(schema, &druid.IndexOptions{BlockSize: opt.blockSize})
		if err != nil {
			log.Fatal(err)
		}
		name, idx, offHeap = "I2-Oak", oakIdx, oakIdx.OffHeapBytes
	} else {
		legacy, err := druid.NewLegacyIndex(schema)
		if err != nil {
			log.Fatal(err)
		}
		idx = legacy
	}
	gen := druid.NewTupleGen(42, tuplesPerBucket, []int{1000, 100000}, 2)
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
	settleHeap()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	r := druidRow{
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

// settleHeap collects until the heap holds only reachable objects. One
// GC is not enough: it moves sync.Pool contents to the pools' victim
// caches, which the next GC frees, so garbage pooled by earlier figures
// would be freed during an ingest and subtracted from its heap delta.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}

func writeDruidTable(rows []druidRow) {
	fmt.Printf("%-14s %-11s %9s %10s %9s %9s %9s %9s\n",
		"SCENARIO", "INDEX", "TUPLES", "KOPS/S", "RAW(MB)", "HEAP(MB)", "OFF(MB)", "OVERHEAD")
	for _, r := range rows {
		fmt.Printf("%-14s %-11s %9d %10.1f %9.1f %9.1f %9.1f %8.1f%%\n",
			r.scenario, r.index, r.tuples, r.kops, r.rawMB, r.heapMB, r.offMB, r.overhead*100)
	}
}
