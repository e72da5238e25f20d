package main

import "fmt"

// units names every metric the program reports and its unit; BENCHMARK.json
// at the repository root lists the same names (a test holds the two
// together). The first table is what an untraced run prints, the second
// what a traced run prints.
var endToEndUnits = map[string]string{
	"setup_s":                     "s",
	"throughput_ops_s":            "ops/s",
	"read_p50_us":                 "us",
	"write_p50_us":                "us",
	"offheap_bytes_per_user_byte": "ratio",
	"heap_inuse_mb":               "MiB",
	"heap_alloc_bytes_per_op":     "B/op",
}

var perLayerUnits = map[string]string{
	"arena.alloc_free_ns":      "ns",
	"arena.alloc_free_2g_ns":   "ns",
	"arena.write_ns":           "ns",
	"arena.footprint_ratio":    "ratio",
	"arena.alloc_calls_per_op": "count",
	"arena.free_spans_end":     "count",

	"epoch.pin_unpin_ns":     "ns",
	"epoch.pin_unpin_2g_ns":  "ns",
	"epoch.retire_ns":        "ns",
	"epoch.advances_per_kop": "count",
	"epoch.slot_overflows":   "count",

	"vheader.read_lock_pair_ns":    "ns",
	"vheader.write_lock_pair_ns":   "ns",
	"vheader.alloc_ns":             "ns",
	"vheader.headers_per_live_key": "ratio",

	"skiplist.floor_ns":       "ns",
	"skiplist.floor_small_ns": "ns",

	"chunk.lookup_ns":              "ns",
	"chunk.lookup_unsorted_ns":     "ns",
	"chunk.insert_ns":              "ns",
	"chunk.desc_iter_ns_per_entry": "ns",

	"core.get_ns":                 "ns",
	"core.put_overwrite_ns":       "ns",
	"core.put_resize_ns":          "ns",
	"core.put_insert_ns":          "ns",
	"core.remove_ns":              "ns",
	"core.compute_ns":             "ns",
	"core.ascend_ns_per_entry":    "ns",
	"core.descend_ns_per_entry":   "ns",
	"core.cursor_next_ns":         "ns",
	"core.rebalances_per_kop":     "count",
	"core.self_get_ns":            "ns",
	"core.self_put_ns":            "ns",
	"core.snap_get_ns":            "ns",
	"core.snapshot_begin_end_us":  "us",
	"core.apply_batch_ns_per_key": "ns",

	"sharded.route_ns":                "ns",
	"sharded.get_ns":                  "ns",
	"sharded.put_ns":                  "ns",
	"sharded.cursor_open_us":          "us",
	"sharded.merge_ns_per_entry":      "ns",
	"sharded.merge_self_ns_per_entry": "ns",

	"oakmap.zc_get_ns":                   "ns",
	"oakmap.zc_put_ns":                   "ns",
	"oakmap.copy_get_ns":                 "ns",
	"oakmap.self_get_ns":                 "ns",
	"oakmap.ascend_stream_ns_per_entry":  "ns",
	"oakmap.descend_stream_ns_per_entry": "ns",
	"oakmap.allocs_per_get":              "count",
	"oakmap.allocs_per_put":              "count",

	"server.ping_ns":        "ns",
	"server.get_ns":         "ns",
	"server.set_ns":         "ns",
	"server.self_get_ns":    "ns",
	"server.scan_page_us":   "us",
	"server.rtt_depth1_us":  "us",
	"server.cmd_get_p50_us": "us",

	"runtime.gc_cycles":          "count",
	"runtime.gc_cpu_pct":         "%",
	"telemetry.overhead_pct":     "%",
	"breakdown.get_residual_pct": "%",
	"breakdown.put_residual_pct": "%",

	// End-to-end figures that are reported but not gated: the 99th
	// percentiles did not repeat within the largest bound the contract
	// allows (results/BENCH_14.md), the others apply to some workloads
	// only or always read 0.
	"e2e.read_p99_us":      "us",
	"e2e.write_p99_us":     "us",
	"e2e.read_tail_us":     "us",
	"e2e.write_tail_us":    "us",
	"e2e.scan_entries_s":   "1/s",
	"e2e.failed_ops_share": "ratio",
}

// metricSet is a run's reported numbers, each under a name from one of the
// tables above.
type metricSet map[string]metric

// set reports name as the median of values (or the one value).
func (m metricSet) set(name string, values ...float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q has no unit in metrics.go", name))
	}
	if len(values) == 1 {
		m[name] = metric{Value: values[0], Unit: unit}
		return
	}
	m[name] = metric{Value: median(values), Unit: unit, Values: values}
}
