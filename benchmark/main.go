// Command benchmark is the repository's benchmark: four closed-loop
// workloads over oakmap.Map and oak-server, end-to-end metrics measured
// with telemetry off, and (with -trace 1) a per-layer breakdown measured
// from outside by timing calls into each layer's exported functions.
// README.md in this directory describes workloads, metrics and method.
//
// The driver contract (BENCHMARK.json at the repository root):
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// metric is one reported number. values holds what the median was taken
// over (per-window values, the set-up repetitions); -compare pools them.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Detail carries what is reported but is not a metric: sample
	// counts, the level of the tail percentile, dropped samples.
	Detail map[string]float64 `json:"detail,omitempty"`
}

// host is the shape of the machine and build the numbers belong to.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
}

// report is the -out file: every run of one invocation.
type report struct {
	Host host     `json:"host"`
	Runs []result `json:"runs"`
}

// comparable reports whether numbers from h and o may be compared: same
// client count, same GOMAXPROCS, same Go release.
func (h host) comparable(o host) bool {
	return h.Workers == o.Workers && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func hostShape() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: numWorkers(),
		GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// watchdog aborts the process with a goroutine dump if what it guards
// takes more than three times its budget, so a deadlock in the program
// under test ends the run instead of hanging it.
func watchdog(what string, budget time.Duration) (stop func()) {
	t := time.AfterFunc(3*budget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: watchdog: %s exceeded 3x its budget of %v; goroutines:\n", what, budget)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort on the way out
		os.Exit(3)
	})
	return func() { t.Stop() }
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = attach telemetry and run the layer probes, print per-layer metrics")
		out      = flag.String("out", "", "also write the full report (host shape, every run, per-window values) to this file, appending to a report already there")
		compare  = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
		quick    = flag.Bool("quick", false, "smoke: every workload and probe for 1 s, metric names checked against BENCHMARK.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *quick:
		if err := runQuick(*seed); err != nil {
			fatal(err)
		}
	default:
		if *workload == "" || *seconds < 1 || flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		if err := runCommand(*workload, *seed, *seconds, *trace != 0, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runCommand runs one workload (or all of them) and prints each result
// as one JSON line. With a single workload that line is exactly the
// driver's contract; with all, each line also names its workload.
func runCommand(name string, seed uint64, seconds int, trace bool, out string) error {
	specs := workloads
	if name != "all" {
		s := findSpec(name)
		if s == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		specs = []*spec{s}
	}
	if _, err := loadContract(); err != nil { // fail before measuring, not after
		return err
	}
	rep := report{Host: hostShape()}
	cfg := fullRun(seconds)
	valid := true
	for _, s := range specs {
		var (
			r   result
			err error
		)
		if trace {
			r, err = runTraced(s, seed, cfg, probeBudget)
		} else {
			r, err = runUntraced(s, seed, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		rep.Runs = append(rep.Runs, r)
		valid = valid && r.Correct
		if err := printResult(r, name == "all"); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return err
		}
	}
	if !valid {
		return fmt.Errorf("run invalid: operations failed")
	}
	return nil
}

// writeReport writes rep to path. If path already holds a report from
// the same host shape its runs are kept and rep's are appended, so several
// invocations (more seeds, the traced run) build up one file for -compare.
func writeReport(path string, rep report) error {
	if old, err := readReport(path); err == nil {
		if !old.Host.comparable(rep.Host) {
			return fmt.Errorf("%s holds runs from another host shape; not appending", path)
		}
		rep.Runs = append(old.Runs, rep.Runs...)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult writes the contract line: correct, attempted, failed and
// the metrics with value and unit only.
func printResult(r result, named bool) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Workload  string        `json:"workload,omitempty"`
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	if named {
		line.Workload = r.Workload
	}
	for k, m := range r.Metrics {
		line.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// runConfig is how long a run measures and how big its data sets are.
type runConfig struct {
	seconds   int
	warm      time.Duration
	setupReps int
	scale     uint64 // data sets are 1/scale of their full size
}

func fullRun(seconds int) runConfig {
	return runConfig{seconds: seconds, warm: 2 * time.Second, setupReps: setupReps, scale: 1}
}

// scaled returns s with its key count divided by cfg.scale (-quick).
func (cfg runConfig) scaled(s *spec) *spec {
	if cfg.scale == 1 {
		return s
	}
	c := *s
	c.keys /= cfg.scale
	return &c
}

// setUp builds the workload cfg.setupReps times from scratch and returns
// the last session with every set-up time. One set-up is everything
// between process start and warm-up that depends on the workload:
// generator tables, map construction, random-order ingestion, and for
// server-mixed the server start and both dials.
func setUp(s *spec, seed uint64, cfg runConfig) (session, []float64, error) {
	var (
		sess  session
		times []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		if sess != nil {
			sess.close()
			runtime.GC() // the discarded map's blocks, outside the timed set-up
		}
		stop := watchdog(s.name+" set-up", 40*time.Second)
		t0 := time.Now()
		var err error
		sess, err = newSession(s, seed, numWorkers(), nil)
		times = append(times, time.Since(t0).Seconds())
		stop()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return sess, times, nil
}

// measureGuarded is session.measure under the watchdog.
func measureGuarded(what string, sess session, warm time.Duration, n int, win time.Duration) []window {
	defer watchdog(what, warm+time.Duration(n)*win+5*time.Second)()
	return sess.measure(warm, n, win)
}

func finishGuarded(what string, sess session) (endState, error) {
	defer watchdog(what+" end gates", 20*time.Second)()
	return sess.finish()
}

// runUntraced measures the end-to-end metrics: telemetry nil, no probes.
func runUntraced(s *spec, seed uint64, cfg runConfig) (result, error) {
	s = cfg.scaled(s)
	r := result{Workload: s.name, Seed: seed, Seconds: cfg.seconds, Metrics: metricSet{}, Detail: map[string]float64{}}
	sess, setups, err := setUp(s, seed, cfg)
	if err != nil {
		return r, err
	}
	defer sess.close()
	win := time.Duration(cfg.seconds) * time.Second / numWindows
	sum := summarize(measureGuarded(s.name, sess, cfg.warm, numWindows, win))
	end, err := finishGuarded(s.name, sess)
	if err != nil {
		return r, err
	}
	r.Attempted, r.Failed = sum.attempted, sum.failed
	r.Correct = sum.failed == 0
	r.Metrics.set("setup_s", setups...)
	sum.endToEnd(r.Metrics)
	r.Metrics.set("offheap_bytes_per_user_byte", ratio(float64(end.stats.Footprint), float64(end.userBytes)))
	r.Metrics.set("heap_inuse_mb", float64(end.heapInuse)/(1<<20))
	sum.detail(r.Detail)
	return r, nil
}

// summary reduces windows to per-window values, dropping the samples.
type summary struct {
	ops, attempted, failed, dropped      uint64
	throughput, entriesPerSec, allocOp   []float64
	readP50, readP99, writeP50, writeP99 []float64
	readN, writeN                        int
	readMean, writeMean                  float64 // ns, over all windows
	readTail, writeTail                  tail
}

// tail is the highest percentile with at least ten samples beyond it,
// over the pooled samples of all windows.
type tail struct {
	level, us float64
}

func summarize(ws []window) summary {
	var (
		s                 summary
		allRead, allWrite []uint32
		readSum, writeSum float64
	)
	us := func(ns uint32) float64 { return float64(ns) / 1e3 }
	for _, w := range ws {
		s.ops += w.ops
		s.attempted += w.attempted
		s.failed += w.failed
		s.dropped += w.dropped
		s.throughput = append(s.throughput, float64(w.ops)/w.seconds)
		s.entriesPerSec = append(s.entriesPerSec, float64(w.entries)/w.seconds)
		if w.ops > 0 {
			s.allocOp = append(s.allocOp, float64(w.allocBytes)/float64(w.ops))
		}
		if len(w.read) > 0 {
			s.readP50 = append(s.readP50, us(percentile(w.read, 50)))
			s.readP99 = append(s.readP99, us(percentile(w.read, 99)))
		}
		if len(w.write) > 0 {
			s.writeP50 = append(s.writeP50, us(percentile(w.write, 50)))
			s.writeP99 = append(s.writeP99, us(percentile(w.write, 99)))
		}
		readSum += mean(w.read) * float64(len(w.read))
		writeSum += mean(w.write) * float64(len(w.write))
		allRead = append(allRead, w.read...)
		allWrite = append(allWrite, w.write...)
	}
	s.readN, s.writeN = len(allRead), len(allWrite)
	if s.readN > 0 {
		s.readMean = readSum / float64(s.readN)
	}
	if s.writeN > 0 {
		s.writeMean = writeSum / float64(s.writeN)
	}
	s.readTail = tailOf(allRead)
	s.writeTail = tailOf(allWrite)
	return s
}

func tailOf(samples []uint32) tail {
	slices.Sort(samples)
	level, v, ok := tailPercentile(samples)
	if !ok {
		return tail{}
	}
	return tail{level: level, us: float64(v) / 1e3}
}

// endToEnd writes the windowed end-to-end metrics, each the median of
// its per-window values.
func (s *summary) endToEnd(m metricSet) {
	m.set("throughput_ops_s", s.throughput...)
	m.set("read_p50_us", s.readP50...)
	m.set("write_p50_us", s.writeP50...)
	m.set("heap_alloc_bytes_per_op", s.allocOp...)
}

func (s *summary) detail(d map[string]float64) {
	d["read_p99_us"] = median(s.readP99)
	d["write_p99_us"] = median(s.writeP99)
	d["read_samples"] = float64(s.readN)
	d["write_samples"] = float64(s.writeN)
	d["read_tail_level_pct"] = s.readTail.level
	d["read_tail_us"] = s.readTail.us
	d["write_tail_level_pct"] = s.writeTail.level
	d["write_tail_us"] = s.writeTail.us
	d["samples_dropped"] = float64(s.dropped)
	d["scan_entries_s"] = median(s.entriesPerSec)
}
