package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"text/tabwriter"
	"time"

	"oakmap/internal/arena"
)

// WriteCSV emits results in the artifact's summary.csv layout
// (Appendix A.6): Scenario, Bench, Heap size, Direct Mem, #Threads,
// Final Size, Throughput (Mops/sec, matching the artifact's convention).
// Each row's Heap size is its own MemLimit in MiB ("512m"), empty for a
// row run under no budget.
func WriteCSV(w io.Writer, results []Result, directLimit string) error {
	if _, err := fmt.Fprintln(w, "Scenario,Bench,Heap size,Direct Mem,#Threads,Final Size,Throughput"); err != nil {
		return err
	}
	for _, r := range results {
		heapLimit := ""
		if r.MemLimit > 0 {
			heapLimit = fmt.Sprintf("%dm", r.MemLimit>>20)
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,%.6f\n",
			r.Scenario, r.Target, heapLimit, directLimit, r.Threads,
			r.FinalSize, r.KopsPerSec/1000); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders results as an aligned human-readable table; latency
// percentile columns appear when any result carries samples.
func WriteTable(w io.Writer, results []Result) error {
	withLatency := false
	for _, r := range results {
		if r.P99 > 0 {
			withLatency = true
			break
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "SCENARIO\tBENCH\tTHREADS\tOPS\tKOPS/S\tSIZE\tOFFHEAP(MB)\tHEAP(MB)\tGC\tALLOC/OP"
	if withLatency {
		header += "\tP50\tP99\tP99.9\tMAX"
	}
	fmt.Fprintln(tw, header)
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\t%d\t%.1f\t%.1f\t%d\t%.0f",
			r.Scenario, r.Target, r.Threads, r.Ops, r.KopsPerSec,
			r.FinalSize, float64(r.OffHeapBytes)/(1<<20),
			float64(r.HeapBytes)/(1<<20), r.NumGC, r.AllocPerOp)
		if withLatency {
			fmt.Fprintf(tw, "\t%v\t%v\t%v\t%v", r.P50, r.P99, r.P999, r.PMax)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WithMemoryLimit runs f under a RAM budget of limit bytes (the
// stand-in for the JVM's -Xmx budget in Figs. 3 and 5b) and restores the
// previous Go memory limit afterwards. offHeap reports the off-heap
// bytes of the target f fills. Those of them that sit outside the Go
// heap (OutsideHeap) do not count against the Go limit, so while f runs
// the Go limit follows the budget minus them as the arena grows.
func WithMemoryLimit(limit int64, offHeap func() int64, f func()) {
	goLimit := func() int64 { return max(limit-OutsideHeap(offHeap()), 0) }
	prev := debug.SetMemoryLimit(goLimit())
	defer debug.SetMemoryLimit(prev)
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }() // before prev is restored
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				debug.SetMemoryLimit(goLimit())
			}
		}
	}()
	f()
}

// OutsideHeap returns how many of offHeap arena bytes live outside the Go
// heap: all of them where blocks are carved from anonymous mappings, none
// where they come from the Go heap (non-Linux and race builds), whose
// HeapAlloc already counts them.
func OutsideHeap(offHeap int64) int64 {
	return min(offHeap, arena.MappedBytes())
}

// WritePlotData writes per-scenario gnuplot-friendly data files to dir —
// the analogue of the artifact's generate.py (§A.8). Each scenario gets
// a <scenario>.dat file with one block per target: "# target" followed
// by "threads kops" rows, separable in gnuplot via `index`.
func WritePlotData(dir string, results []Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byScenario := map[string][]Result{}
	var order []string
	for _, r := range results {
		if _, ok := byScenario[r.Scenario]; !ok {
			order = append(order, r.Scenario)
		}
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
	}
	for _, scenario := range order {
		rows := byScenario[scenario]
		byTarget := map[string][]Result{}
		var torder []string
		for _, r := range rows {
			if _, ok := byTarget[r.Target]; !ok {
				torder = append(torder, r.Target)
			}
			byTarget[r.Target] = append(byTarget[r.Target], r)
		}
		name := filepath.Join(dir, sanitizeFile(scenario)+".dat")
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		for i, target := range torder {
			if i > 0 {
				fmt.Fprintln(f) // blank lines separate gnuplot indexes
				fmt.Fprintln(f)
			}
			fmt.Fprintf(f, "# %s\n", target)
			fmt.Fprintln(f, "# threads kops_per_sec final_size offheap_mb")
			for _, r := range byTarget[target] {
				fmt.Fprintf(f, "%d %.3f %d %.1f\n",
					r.Threads, r.KopsPerSec, r.FinalSize,
					float64(r.OffHeapBytes)/(1<<20))
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeFile keeps scenario names filesystem-safe.
func sanitizeFile(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
