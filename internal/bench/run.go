package bench

import (
	"encoding/binary"
	mrand "math/rand"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oakmap/internal/telemetry"
)

// Config describes an experiment's data shape and execution envelope,
// mirroring the synchrobench parameters of §5.1 / Appendix A.7.
type Config struct {
	Threads   int
	KeyRange  int // keys are sampled uniformly from [0, KeyRange)
	KeySize   int // serialized key size (paper: 100B)
	ValueSize int // serialized value size (paper: 1KB)
	// Duration bounds the sustained stage; if OpsPerThread > 0 it takes
	// precedence (deterministic work, used by testing.B).
	Duration     time.Duration
	OpsPerThread int64
	// WarmFraction is the share of the key range pre-populated by the
	// single-threaded ingestion stage (paper: 50%).
	WarmFraction float64
	Seed         uint64
	// ZipfS, when > 1, draws keys from a Zipf distribution with skew s
	// instead of uniformly (synchrobench's skewed workloads). Hot keys
	// stress Oak's per-value concurrency control.
	ZipfS float64
	// SampleLatency records one op latency out of every 64 into a
	// histogram, filling the result's P50/P99/P999/PMax fields — the
	// probe for GC-induced tail latency (§1's "unpredictable
	// performance").
	SampleLatency bool
}

// keyChooser returns a per-goroutine key sampler for the configured
// distribution.
func (c Config) keyChooser(seed uint64) func() uint64 {
	if c.ZipfS > 1 {
		z := mrand.NewZipf(mrand.New(mrand.NewSource(int64(seed))),
			c.ZipfS, 1, uint64(c.KeyRange-1))
		return z.Uint64
	}
	rng := rand.New(rand.NewPCG(c.Seed, seed))
	return func() uint64 { return rng.Uint64() % uint64(c.KeyRange) }
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.KeyRange <= 0 {
		c.KeyRange = 100000
	}
	if c.KeySize < 8 {
		c.KeySize = 8
	}
	if c.ValueSize < 8 {
		c.ValueSize = 8
	}
	if c.Duration <= 0 && c.OpsPerThread <= 0 {
		c.Duration = time.Second
	}
	if c.WarmFraction <= 0 {
		c.WarmFraction = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Mix is an operation mix for the sustained stage. Percentages must sum
// to at most 100; the remainder is gets.
type Mix struct {
	Name       string
	PutPct     int
	ComputePct int
	RemovePct  int
	ScanPct    int
	ScanLen    int
	Descending bool
	Stream     bool
	CopyGet    bool // use the legacy copying get
}

// Standard mixes, one per panel of Fig. 4.
var (
	MixPut        = Mix{Name: "put", PutPct: 100}
	MixCompute    = Mix{Name: "computeIfPresent", ComputePct: 100}
	MixGet        = Mix{Name: "get-zc"}
	MixGetCopy    = Mix{Name: "get-copy", CopyGet: true}
	Mix95Get5Put  = Mix{Name: "95get-5put", PutPct: 5}
	MixScanAsc    = Mix{Name: "ascend-10k", ScanPct: 100, ScanLen: 10000}
	MixScanAscStr = Mix{Name: "ascend-10k-stream", ScanPct: 100, ScanLen: 10000, Stream: true}
	MixScanDesc   = Mix{Name: "descend-10k", ScanPct: 100, ScanLen: 10000, Descending: true}
	MixScanDescSt = Mix{Name: "descend-10k-stream", ScanPct: 100, ScanLen: 10000, Descending: true, Stream: true}
)

// Result is one measured data point (one row of summary.csv).
type Result struct {
	Scenario     string
	Target       string
	Threads      int
	Ops          int64
	Seconds      float64
	KopsPerSec   float64
	FinalSize    int
	OffHeapBytes int64
	HeapBytes    uint64 // HeapAlloc after the run
	NumGC        uint32 // GC cycles during the run
	AllocPerOp   float64
	MemLimit     int64 // RAM budget the run was held to; 0 = none
	// Latency percentiles (only when Config.SampleLatency is set).
	P50, P99, P999, PMax time.Duration
}

// KeyEncoder writes the i-th key of the space into a fixed-size buffer:
// an 8-byte big-endian index followed by deterministic padding, giving
// the paper's 100-byte keys with a total order equal to integer order.
type KeyEncoder struct{ size int }

// NewKeyEncoder creates an encoder for keys of the given size (≥ 8).
func NewKeyEncoder(size int) KeyEncoder {
	if size < 8 {
		size = 8
	}
	return KeyEncoder{size: size}
}

// Encode writes key i into dst (len ≥ size) and returns dst[:size].
func (e KeyEncoder) Encode(dst []byte, i uint64) []byte {
	dst = dst[:e.size]
	binary.BigEndian.PutUint64(dst, i)
	for j := 8; j < e.size; j++ {
		dst[j] = byte(j)
	}
	return dst
}

// MakeValue builds a deterministic value of the given size whose first 8
// bytes form a counter field (mutated by the compute workload).
func MakeValue(size int, seed uint64) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, seed)
	for j := 8; j < size; j++ {
		v[j] = byte(seed + uint64(j))
	}
	return v
}

// Ingest runs the paper's ingestion stage: a single thread populates the
// map with WarmFraction of the key range via putIfAbsent, measured.
func Ingest(t Target, cfg Config) Result {
	cfg = cfg.withDefaults()
	enc := NewKeyEncoder(cfg.KeySize)
	keyBuf := make([]byte, cfg.KeySize)
	val := MakeValue(cfg.ValueSize, cfg.Seed)
	n := int64(float64(cfg.KeyRange) * cfg.WarmFraction)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	perm := rng.Perm(cfg.KeyRange)

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var done int64
	for _, idx := range perm {
		if done >= n {
			break
		}
		t.PutIfAbsent(enc.Encode(keyBuf, uint64(idx)), val)
		done++
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	return Result{
		Scenario:     "ingest",
		Target:       t.Name(),
		Threads:      1,
		Ops:          done,
		Seconds:      elapsed.Seconds(),
		KopsPerSec:   float64(done) / elapsed.Seconds() / 1000,
		FinalSize:    t.Len(),
		OffHeapBytes: t.OffHeapBytes(),
		HeapBytes:    msAfter.HeapAlloc,
		NumGC:        msAfter.NumGC - msBefore.NumGC,
		AllocPerOp:   float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(max64(done, 1)),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Run executes the sustained stage: Threads symmetric workers apply the
// mix to uniformly random keys until the duration (or per-thread op
// budget) expires.
func Run(t Target, cfg Config, mix Mix) Result {
	cfg = cfg.withDefaults()
	enc := NewKeyEncoder(cfg.KeySize)
	stop := make(chan struct{})
	var totalOps atomic.Int64
	// One histogram per goroutine, merged once every worker is done.
	hists := make([]telemetry.AtomicHist, cfg.Threads)
	var wg sync.WaitGroup

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	for g := 0; g < cfg.Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(g)+7))
			nextKey := cfg.keyChooser(uint64(g) + 7)
			keyBuf := make([]byte, cfg.KeySize)
			valBuf := MakeValue(cfg.ValueSize, uint64(g))
			cpBuf := make([]byte, 0, cfg.ValueSize)
			local := &hists[g]
			ops := int64(0)
			for {
				if cfg.OpsPerThread > 0 {
					if ops >= cfg.OpsPerThread {
						break
					}
				} else if ops&0x3ff == 0 {
					select {
					case <-stop:
						totalOps.Add(ops)
						return
					default:
					}
				}
				k := enc.Encode(keyBuf, nextKey())
				var opStart time.Time
				sample := cfg.SampleLatency && ops&63 == 0
				if sample {
					opStart = time.Now()
				}
				p := int(rng.Uint64() % 100)
				switch {
				case p < mix.PutPct:
					t.Put(k, valBuf)
				case p < mix.PutPct+mix.ComputePct:
					t.Compute(k)
				case p < mix.PutPct+mix.ComputePct+mix.RemovePct:
					t.Remove(k)
				case p < mix.PutPct+mix.ComputePct+mix.RemovePct+mix.ScanPct:
					if mix.Descending {
						t.ScanDesc(k, mix.ScanLen, mix.Stream)
					} else {
						t.Scan(k, mix.ScanLen, mix.Stream)
					}
				default:
					if mix.CopyGet {
						cpBuf, _ = ensureGetCopy(t, k, cpBuf)
					} else {
						t.Get(k)
					}
				}
				if sample {
					local.Observe(time.Since(opStart))
				}
				ops++
			}
			totalOps.Add(ops)
		}(g)
	}
	if cfg.OpsPerThread <= 0 {
		time.Sleep(cfg.Duration)
		close(stop)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	ops := totalOps.Load()
	res := Result{
		Scenario:     mix.Name,
		Target:       t.Name(),
		Threads:      cfg.Threads,
		Ops:          ops,
		Seconds:      elapsed.Seconds(),
		KopsPerSec:   float64(ops) / elapsed.Seconds() / 1000,
		FinalSize:    t.Len(),
		OffHeapBytes: t.OffHeapBytes(),
		HeapBytes:    msAfter.HeapAlloc,
		NumGC:        msAfter.NumGC - msBefore.NumGC,
		AllocPerOp:   float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(max64(ops, 1)),
	}
	var hist telemetry.HistSnapshot
	for i := range hists {
		hist.Merge(hists[i].Snapshot())
	}
	if cfg.SampleLatency && hist.Count > 0 {
		res.P50 = hist.Quantile(0.50)
		res.P99 = hist.Quantile(0.99)
		res.P999 = hist.Quantile(0.999)
		res.PMax = time.Duration(hist.MaxNanos)
	}
	return res
}

func ensureGetCopy(t Target, k, buf []byte) ([]byte, bool) {
	out, ok := t.GetCopy(k, buf)
	if ok {
		fold(out)
		return out, true
	}
	return buf, false
}

// RunMedian runs the sustained stage iterations times and returns the
// run with the median throughput — the artifact's methodology ("Every
// data point is the median of 3 runs").
func RunMedian(t Target, cfg Config, mix Mix, iterations int) Result {
	if iterations <= 1 {
		return Run(t, cfg, mix)
	}
	results := make([]Result, iterations)
	for i := range results {
		results[i] = Run(t, cfg, mix)
	}
	sort.Slice(results, func(i, j int) bool {
		return results[i].KopsPerSec < results[j].KopsPerSec
	})
	return results[iterations/2]
}

// Warm populates the map for the sustained stage without measuring.
func Warm(t Target, cfg Config) {
	cfg = cfg.withDefaults()
	enc := NewKeyEncoder(cfg.KeySize)
	keyBuf := make([]byte, cfg.KeySize)
	val := MakeValue(cfg.ValueSize, cfg.Seed)
	n := int(float64(cfg.KeyRange) * cfg.WarmFraction)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	for _, idx := range rng.Perm(cfg.KeyRange)[:n] {
		t.PutIfAbsent(enc.Encode(keyBuf, uint64(idx)), val)
	}
}
