package oakmap

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// rollupGauges are the structural series every map exports under the
// same name whatever its shard count (dashboards, the CI greps and
// benchmark/trace.go read them by these names).
var rollupGauges = []string{
	"oak_arena_alloc_calls_total", "oak_arena_blocks", "oak_arena_fragmentation_ratio",
	"oak_arena_free_spans", "oak_chunks", "oak_epoch", "oak_epoch_advances_total",
	"oak_epoch_drains_total", "oak_epoch_slot_overflows_total", "oak_footprint_bytes",
	"oak_header_count", "oak_len", "oak_limbo_bytes",
	"oak_limbo_items", "oak_live_bytes", "oak_mvcc_horizon_lag",
	"oak_mvcc_open_snapshots", "oak_mvcc_retained_bytes", "oak_mvcc_retained_spans",
	"oak_pinned_readers", "oak_rebalances_total",
}

// TestMetricsGoldenNames pins the gauge series of a one-shard and of a
// four-shard map to a golden list, so the single registrar can neither
// drop nor rename one: the rollups for both, per-class arena occupancy
// for one shard only, oak_shards and the per-shard breakdown for several.
func TestMetricsGoldenNames(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			tel := NewTelemetry(nil)
			m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
				&Options{BlockSize: 1 << 20, Shards: shards, Telemetry: tel})
			defer m.Close()
			for i := uint64(0); i < 64; i++ {
				if _, _, err := m.Put(i, "v"); err != nil {
					t.Fatal(err)
				}
			}
			var sb strings.Builder
			if err := tel.WriteMetrics(&sb); err != nil {
				t.Fatal(err)
			}
			// Gauge series: every sample line that is not part of the op
			// latency/count families or the event counter. Labeled series
			// collapse to family{label=} with their label values counted.
			got := map[string]int{}
			for _, line := range strings.Split(sb.String(), "\n") {
				name, _, _ := strings.Cut(line, " ")
				if name == "" || name[0] == '#' || strings.HasPrefix(name, "oak_op") || name == "oak_events_total" {
					continue
				}
				if i := strings.Index(name, `="`); i >= 0 {
					name = name[:i+1] + "}"
				}
				got[name]++
			}
			want := map[string]int{}
			for _, name := range rollupGauges {
				want[name] = 1
			}
			if shards == 1 {
				classes := got["oak_arena_class_spans{class=}"]
				if classes == 0 {
					t.Error("no oak_arena_class_spans{class=…} series (the CI greps for it)")
				}
				want["oak_arena_class_spans{class=}"] = classes
				want["oak_arena_class_bytes{class=}"] = classes
			} else {
				want["oak_shards"] = 1
				for _, family := range []string{"len", "live_bytes", "rebalances_total"} {
					want["oak_shard_"+family+"{shard=}"] = shards
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("gauge series for %d shard(s):\n got %v\nwant %v", shards, sorted(got), sorted(want))
			}
			if !strings.Contains(sb.String(), "\noak_len 64\n") {
				t.Errorf("oak_len does not roll the shards up to 64")
			}
		})
	}
}

func sorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k, n := range m {
		out = append(out, fmt.Sprintf("%s×%d", k, n))
	}
	sort.Strings(out)
	return out
}
