// Telemetry overhead measurement: the same Get/Put microbenchmark run
// with telemetry disabled (nil Options.Telemetry) and enabled (default
// 1-in-64 sampling). TestTelemetryOverheadGate holds the
// enabled/disabled ratio under the 3% budget; EXPERIMENTS.md
// "Telemetry overhead" records its runs.
package oakmap_test

import (
	"fmt"
	"testing"
	"time"

	"oakmap"
)

const telBenchKeys = 1 << 13 // 8192 resident keys, power of two for masking

func telBenchMap(tel *oakmap.Telemetry) *oakmap.Map[uint64, uint64] {
	m := oakmap.New[uint64, uint64](oakmap.Uint64Serializer{}, oakmap.Uint64Serializer{},
		&oakmap.Options{BlockSize: 8 << 20, Telemetry: tel})
	for k := uint64(0); k < telBenchKeys; k++ {
		if _, _, err := m.Put(k, k); err != nil {
			panic(err)
		}
	}
	return m
}

func telTelemetry(on bool) *oakmap.Telemetry {
	if !on {
		return nil
	}
	return oakmap.NewTelemetry(nil)
}

func benchTelGet(b *testing.B, on bool) {
	m := telBenchMap(telTelemetry(on))
	defer m.Close()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(uint64(i) & (telBenchKeys - 1))
		sink += v
	}
	_ = sink
}

func benchTelPut(b *testing.B, on bool) {
	m := telBenchMap(telTelemetry(on))
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & (telBenchKeys - 1)
		if _, _, err := m.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetTelemetryOnVsOff is the overhead benchmark the <3% budget
// is gated on.
func BenchmarkGetTelemetryOnVsOff(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchTelGet(b, false) })
	b.Run("on", func(b *testing.B) { benchTelGet(b, true) })
}

// BenchmarkPutTelemetryOnVsOff is the Put-side companion.
func BenchmarkPutTelemetryOnVsOff(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchTelPut(b, false) })
	b.Run("on", func(b *testing.B) { benchTelPut(b, true) })
}

// TestTelemetryOverheadGate asserts the <3% hot-path overhead budget.
//
// Methodology: interleaved off/on pairs, min-of-N per config — the min
// is the least-noise estimate of each config's true cost, and
// interleaving keeps thermal/GC drift from biasing one side. The gate
// retries because a 3% bound sits near scheduler-noise level on shared
// CI machines; a real regression (sampling bug, always-on timing) shows
// up as 10%+ on every attempt and still fails all retries.
//
// Skipped under -short and under the race detector: race instrumentation
// multiplies both sides by ~10x and the telemetry branch's relative cost
// becomes meaningless.
func TestTelemetryOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate needs benchmark-grade timing; skipped in -short")
	}
	if raceEnabled {
		t.Skip("overhead ratios are meaningless under the race detector")
	}

	const (
		rounds   = 4
		budget   = 1.03
		attempts = 3
	)
	measure := func() (offNs, onNs float64) {
		offNs, onNs = 1e18, 1e18
		for i := 0; i < rounds; i++ {
			ro := testing.Benchmark(func(b *testing.B) { benchTelGet(b, false) })
			rn := testing.Benchmark(func(b *testing.B) { benchTelGet(b, true) })
			if v := float64(ro.NsPerOp()); v < offNs {
				offNs = v
			}
			if v := float64(rn.NsPerOp()); v < onNs {
				onNs = v
			}
		}
		return offNs, onNs
	}
	var last string
	for a := 0; a < attempts; a++ {
		offNs, onNs := measure()
		ratio := onNs / offNs
		last = fmt.Sprintf("get off=%.1fns on=%.1fns ratio=%.4f", offNs, onNs, ratio)
		t.Log(last)
		// Sub-nanosecond absolute deltas are timer noise regardless of
		// ratio; anything under budget passes outright.
		if ratio < budget || onNs-offNs < 1.0 {
			return
		}
		time.Sleep(50 * time.Millisecond) // let background work drain before retrying
	}
	t.Fatalf("telemetry overhead above %.0f%% budget on all %d attempts: %s",
		(budget-1)*100, attempts, last)
}
