package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
)

// contract is the part of BENCHMARK.json at the repository root this
// program reads: the workloads and the metric names, units, directions
// and bounds the driver and -compare judge by.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadContract reads BENCHMARK.json from the working directory (the
// checkout root, where the driver runs the command) or its parent (go
// run -C benchmark, go test).
func loadContract() (*contract, error) {
	var (
		b   []byte
		err error
	)
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// checkNames verifies that a result carries exactly the metrics the
// contract lists for its kind of run, with the contract's units.
func (c *contract) checkNames(r result) error {
	want := c.EndToEnd
	if r.Trace {
		want = c.PerLayer
	}
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not reported", r.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", r.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.Metrics {
		if !metricNameRE.MatchString(name) {
			return fmt.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", r.Workload, name)
		}
		if !seen[name] {
			return fmt.Errorf("%s: metric %s was reported but is not in BENCHMARK.json", r.Workload, name)
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// pooled gathers a metric's values over every untraced run of a workload
// in a report: the per-window values where a run has them, else the
// run's single value.
func (r *report) pooled(workload, name string) []float64 {
	var v []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		if m, ok := run.Metrics[name]; ok {
			if len(m.Values) > 0 {
				v = append(v, m.Values...)
			} else {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change of b against a, the bound, and a verdict: ok, worse (b is
// worse than a by more than the bound) or unresolved (either side's
// interquartile spread is wider than the bound, so the medians cannot
// settle it). It reports whether no metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	c, err := loadContract()
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if ha, hb := a.Host, b.Host; !ha.comparable(hb) {
		return false, fmt.Errorf("host shapes differ (workers %d/%d, GOMAXPROCS %d/%d, go %s/%s): the files are not comparable",
			ha.Workers, hb.Workers, ha.GOMAXPROCS, hb.GOMAXPROCS, ha.GoVersion, hb.GoVersion)
	}
	var names []string
	for _, run := range a.Runs {
		if !run.Trace && !slices.Contains(names, run.Workload) {
			names = append(names, run.Workload)
		}
	}
	allOK := true
	fmt.Fprintf(w, "%-13s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, wl := range names {
		for _, m := range c.EndToEnd {
			va, vb := a.pooled(wl, m.Name), b.pooled(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / ma
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case max(spread(va), spread(vb)) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				allOK = false
			}
			fmt.Fprintf(w, "%-13s %-28s %14.4f %14.4f %+7.2f%% %5.0f%%  %s\n", wl, m.Name, ma, mb, 100*delta, 100*m.Bound, verdict)
		}
	}
	return allOK, nil
}
