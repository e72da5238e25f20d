// Command oak-bench regenerates the paper's synthetic evaluation
// (Figs. 3 and 4) with the synchrobench-equivalent harness: it runs the
// compared solutions — Oak (ZC and legacy APIs), SkipList-OnHeap, and
// SkipList-OffHeap — over the paper's workloads and prints both a
// human-readable table and the artifact's summary.csv layout.
//
// Scaled-down defaults finish in minutes on a laptop; raise -size,
// -duration and -threads to approach the paper's AWS configuration.
//
// Examples:
//
//	oak-bench -fig 4a -threads 1,2,4,8 -duration 2s
//	oak-bench -fig 3a -memlimit 268435456
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
	out        string
	blockSize  int
	iterations int
	zipf       float64
	btree      bool
	latency    bool
	tel        *oakmap.Telemetry
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oak-bench: ")
	var (
		figFlag       = flag.String("fig", "4a", "figure to reproduce: 3a, 3b, 4a, 4b, 4c, 4d, 4e, 4f, or all")
		threadsFlag   = flag.String("threads", "1,2,4,8", "comma-separated worker thread counts (Fig. 4)")
		sizeFlag      = flag.Int("size", 100000, "key range (paper: 10M)")
		keySizeFlag   = flag.Int("keysize", 100, "serialized key size in bytes")
		valueSizeFlag = flag.Int("valuesize", 1024, "serialized value size in bytes")
		durationFlag  = flag.Duration("duration", 2*time.Second, "sustained-stage duration per data point (paper: 30s)")
		memLimitFlag  = flag.Int64("memlimit", 512<<20, "Go soft memory limit in bytes for Fig. 3 (stand-in for -Xmx)")
		sizesFlag     = flag.String("sizes", "25000,50000,100000,200000", "dataset sizes for Fig. 3a")
		memsFlag      = flag.String("memlimits", "64,96,128,192,256,384", "RAM budgets in MiB for Fig. 3b")
		outFlag       = flag.String("out", "", "also write summary.csv to this path")
		blockFlag     = flag.Int("blocksize", 8<<20, "off-heap block size in bytes (paper: 100MB)")
		iterFlag      = flag.Int("iterations", 1, "median-of-N iterations per data point (artifact: 3)")
		btreeFlag     = flag.Bool("btree", false, "include the BTree-OffHeap (MapDB stand-in) baseline")
		plotFlag      = flag.String("plotdata", "", "write per-scenario gnuplot .dat files to this directory")
		latencyFlag   = flag.Bool("latency", false, "sample op latencies and report P50/P99/P99.9/max (Fig. 4 scenarios)")
		zipfFlag      = flag.Float64("zipf", 0, "Zipf skew for key sampling (>1 enables; 0 = uniform)")
		telFlag       = flag.Bool("telemetry", false, "attach the telemetry layer to the Oak targets and print its op-latency summary at exit")
	)
	flag.Parse()

	threads, err := parseIntList(*threadsFlag)
	if err != nil {
		log.Fatalf("bad -threads: %v", err)
	}
	sizes, err := parseIntList(*sizesFlag)
	if err != nil {
		log.Fatalf("bad -sizes: %v", err)
	}
	memsMiB, err := parseIntList(*memsFlag)
	if err != nil {
		log.Fatalf("bad -memlimits: %v", err)
	}
	opt := options{
		fig: *figFlag, threads: threads, size: *sizeFlag,
		keySize: *keySizeFlag, valueSize: *valueSizeFlag,
		duration: *durationFlag, memLimit: *memLimitFlag,
		sizes: sizes, out: *outFlag, blockSize: *blockFlag,
		iterations: *iterFlag, zipf: *zipfFlag, btree: *btreeFlag,
		latency: *latencyFlag,
	}
	if *telFlag {
		opt.tel = oakmap.NewTelemetry(nil)
	}
	for _, m := range memsMiB {
		opt.memLimits = append(opt.memLimits, int64(m)<<20)
	}

	var results []bench.Result
	figs := []string{opt.fig}
	if opt.fig == "all" {
		figs = []string{"3a", "3b", "4a", "4b", "4c", "4d", "4e", "4f"}
	}
	for _, f := range figs {
		switch f {
		case "3a":
			results = append(results, fig3a(opt)...)
		case "3b":
			results = append(results, fig3b(opt)...)
		case "4a", "4b", "4c", "4d", "4e", "4f":
			results = append(results, fig4(opt, f)...)
		default:
			log.Fatalf("unknown figure %q", f)
		}
	}

	fmt.Println()
	if err := bench.WriteTable(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
	if opt.out != "" {
		fd, err := os.Create(opt.out)
		if err != nil {
			log.Fatal(err)
		}
		defer fd.Close()
		if err := bench.WriteCSV(fd, results,
			fmt.Sprintf("%dm", opt.memLimit>>20), "shared-pool"); err != nil {
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

// newTargets builds one fresh instance of each compared solution. Fresh
// pools per target keep Fig. 3's memory accounting honest.
func newTargets(opt options, includeCopy bool) []bench.Target {
	oakOpts := &oakmap.Options{BlockSize: opt.blockSize, Telemetry: opt.tel}
	ts := []bench.Target{
		bench.NewOak(oakOpts, false),
	}
	if includeCopy {
		ts = append(ts, bench.NewOak(oakOpts, true))
	}
	ts = append(ts,
		bench.NewOnHeap(),
		bench.NewOffHeap(arena.NewPool(opt.blockSize, 0)),
	)
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
		for _, t := range newTargets(opt, false) {
			var r bench.Result
			bench.WithMemoryLimit(opt.memLimit, t.OffHeapBytes, func() {
				runtime.GC()
				r = bench.Ingest(t, cfg)
			})
			r.Scenario = fmt.Sprintf("3a-ingest-%dk", size/1000)
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
		for _, t := range newTargets(opt, false) {
			var r bench.Result
			bench.WithMemoryLimit(limit, t.OffHeapBytes, func() {
				runtime.GC()
				r = bench.Ingest(t, cfg)
			})
			r.Scenario = fmt.Sprintf("3b-ingest-%dMiB", limit>>20)
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

// fig4 runs one panel of Fig. 4 across the thread sweep.
func fig4(opt options, fig string) []bench.Result {
	var out []bench.Result
	for _, mixes := range [][]bench.Mix{fig4Mixes[fig]} {
		for _, mix := range mixes {
			for _, n := range opt.threads {
				cfg := baseConfig(opt)
				cfg.Threads = n
				includeCopy := fig == "4c" && mix.CopyGet
				streamOakOnly := mix.Stream
				for _, t := range newTargets(opt, includeCopy) {
					// The copy-get mix only applies to the Oak-Copy
					// target; the stream mixes only to Oak.
					if includeCopy && t.Name() != "Oak-Copy" {
						t.Close()
						continue
					}
					if !includeCopy && t.Name() == "Oak-Copy" {
						t.Close()
						continue
					}
					if streamOakOnly && t.Name() != "Oak" {
						t.Close()
						continue
					}
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
	}
	return out
}
