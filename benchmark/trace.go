package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"oakmap"
)

const (
	// tracePairs is how many untraced/traced window pairs a traced run
	// alternates, so that drift on the host hits both sides alike.
	tracePairs = 3
	// probeBudget is how long one timed probe measures in a full run.
	probeBudget = 120 * time.Millisecond
)

// readTelemetry parses the scope's Prometheus exposition into name
// (labels included) → value. The benchmark reads the map's counters this
// way because the facade exports them nowhere else.
func readTelemetry(t *oakmap.Telemetry) map[string]float64 {
	var b bytes.Buffer
	if err := t.WriteMetrics(&b); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		l := sc.Text()
		if strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
			out[l[:i]] = v
		}
	}
	return out
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readGC returns the cumulative GC cycle count and the GC and total CPU
// seconds the runtime has accounted.
func readGC() (cycles uint64, gcCPU, totalCPU float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Uint64(), gcSamples[1].Value.Float64(), gcSamples[2].Value.Float64()
}

// ratio is a/b, and 0 where b is 0: a count per op of a run that did no
// ops is reported as 0, not as NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the per-layer metrics. The workload runs twice side
// by side — one map with telemetry nil, one with an oakmap.Telemetry
// attached — in alternating windows; the throughput difference is the
// tracing overhead and the traced map's counters give the per-op work
// counts. Then both maps are closed and the layer probes run.
func runTraced(s *spec, seed uint64, cfg runConfig, budget time.Duration) (result, error) {
	s = cfg.scaled(s)
	r := result{Workload: s.name, Seed: seed, Seconds: cfg.seconds, Trace: true, Metrics: metricSet{}, Detail: map[string]float64{}}
	M := r.Metrics

	tel := oakmap.NewTelemetry(nil)
	stop := watchdog(s.name+" traced set-up", 80*time.Second)
	u, err := newSession(s, seed, numWorkers(), nil)
	if err != nil {
		stop()
		return r, fmt.Errorf("set-up: %w", err)
	}
	defer u.close()
	t, err := newSession(s, seed, numWorkers(), tel)
	stop()
	if err != nil {
		return r, fmt.Errorf("traced set-up: %w", err)
	}
	defer t.close()

	win := time.Duration(cfg.seconds) * time.Second / (2 * tracePairs)
	measureGuarded(s.name+" warm-up", u, cfg.warm/2, 0, 0)
	measureGuarded(s.name+" traced warm-up", t, cfg.warm/2, 0, 0)
	counters := []string{"oak_arena_alloc_calls_total", "oak_epoch_advances_total", "oak_rebalances_total"}
	delta := map[string]float64{}
	var uw, tw []window
	cycles0, gc0, cpu0 := readGC()
	untraced := func() { uw = append(uw, measureGuarded(s.name, u, 0, 1, win)...) }
	traced := func() {
		before := readTelemetry(tel)
		tw = append(tw, measureGuarded(s.name+" traced", t, 0, 1, win)...)
		after := readTelemetry(tel)
		for _, k := range counters {
			delta[k] += after[k] - before[k]
		}
	}
	for i := 0; i < tracePairs; i++ {
		if i%2 == 0 { // alternate which side goes first, so drift favours neither
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
	}
	cycles1, gc1, cpu1 := readGC()
	us, ts := summarize(uw), summarize(tw)
	if _, err := finishGuarded(s.name, u); err != nil {
		return r, err
	}
	te, err := finishGuarded(s.name+" traced", t)
	if err != nil {
		return r, err
	}
	u.close()
	t.close()
	runtime.GC()

	r.Attempted, r.Failed = us.attempted+ts.attempted, us.failed+ts.failed
	r.Correct = r.Failed == 0
	ut, tt := median(us.throughput), median(ts.throughput)
	ops := float64(ts.ops)
	M.set("telemetry.overhead_pct", 100*ratio(ut-tt, ut))
	M.set("arena.alloc_calls_per_op", ratio(delta["oak_arena_alloc_calls_total"], ops))
	M.set("arena.free_spans_end", float64(te.stats.FreeSpans))
	M.set("epoch.advances_per_kop", 1e3*ratio(delta["oak_epoch_advances_total"], ops))
	M.set("epoch.slot_overflows", te.telemetry["oak_epoch_slot_overflows_total"])
	M.set("vheader.headers_per_live_key", ratio(float64(te.stats.HeaderCount), float64(te.stats.Len)))
	M.set("core.rebalances_per_kop", 1e3*ratio(delta["oak_rebalances_total"], ops))
	M.set("runtime.gc_cycles", float64(cycles1-cycles0))
	// The runtime accounts CPU classes at GC cycles: with no cycle in the
	// windows both differences are 0, and so is the share.
	M.set("runtime.gc_cpu_pct", 100*ratio(gc1-gc0, cpu1-cpu0))
	// End-to-end figures that are reported but not gated, from the
	// untraced windows.
	M.set("e2e.read_p99_us", us.readP99...)
	M.set("e2e.write_p99_us", us.writeP99...)
	M.set("e2e.read_tail_us", us.readTail.us)
	M.set("e2e.write_tail_us", us.writeTail.us)
	M.set("e2e.scan_entries_s", us.entriesPerSec...)
	M.set("e2e.failed_ops_share", ratio(float64(r.Failed), float64(r.Attempted)))
	us.detail(r.Detail)
	r.Detail["untraced_throughput_ops_s"] = ut
	r.Detail["traced_throughput_ops_s"] = tt

	pm, err := runProbes(seed, cfg, budget, r.Detail)
	if err != nil {
		return r, err
	}
	for k, v := range pm {
		M[k] = v
	}
	return r, nil
}

// runQuick is the smoke: every workload, untraced and traced, for one
// second on data sets a tenth the size, with every reported metric name
// and unit checked against BENCHMARK.json.
func runQuick(seed uint64) error {
	c, err := loadContract()
	if err != nil {
		return err
	}
	cfg := runConfig{seconds: 1, warm: 200 * time.Millisecond, setupReps: 1, scale: 10}
	for _, traced := range []bool{false, true} {
		for _, s := range workloads {
			var r result
			if traced {
				r, err = runTraced(s, seed, cfg, probeBudget/10)
			} else {
				r, err = runUntraced(s, seed, cfg)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", s.name, r.Failed, r.Attempted)
			}
			if err := c.checkNames(r); err != nil {
				return err
			}
			fmt.Printf("ok  %-13s trace=%-5v %3d metrics, %d ops, 0 failed\n", s.name, traced, len(r.Metrics), r.Attempted)
		}
	}
	return nil
}
