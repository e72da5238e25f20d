package epoch

import (
	"testing"

	"oakmap/internal/telemetry"
)

// pinNested runs f under n nested pins of d.
func pinNested(d *Domain, n int, f func()) {
	if n == 0 {
		f()
		return
	}
	g := d.Pin()
	defer g.Unpin()
	pinNested(d, n-1, f)
}

// TestGuardOpSamplesEachClass drives the point-op classes in strict
// alternation under one guard, then the scan class: each class must be
// sampled exactly once per 2^shift of its own ops — a sequence shared by
// the four alternating classes would hand every sample to one of them —
// both from a slot and from the overflow path. Calls with a nil recorder
// must not advance a sequence.
func TestGuardOpSamplesEachClass(t *testing.T) {
	const (
		shift  = 4
		rounds = 1 << 10
	)
	d, _ := collectDomain()
	drive := func(g Guard, r *telemetry.Recorder, op telemetry.Op) {
		tk := g.Op(nil, op)
		tk.Done()
		tk = g.Op(r, op)
		tk.Done()
	}
	run := func(t *testing.T, g Guard) {
		r := telemetry.New(telemetry.Config{SampleShift: shift})
		for i := 0; i < rounds; i++ {
			for c := telemetry.OpGet; c < telemetry.OpScanNext; c++ {
				drive(g, r, c)
			}
		}
		for i := 0; i < rounds; i++ {
			drive(g, r, telemetry.OpScanNext)
		}
		for op := telemetry.Op(0); op < telemetry.NumHotOps; op++ {
			if s := r.OpSnapshot(op); s.Hist.Count != rounds>>shift || s.Count != rounds {
				t.Errorf("%s: %d samples, count %d; want %d, %d", op, s.Hist.Count, s.Count, rounds>>shift, rounds)
			}
		}
	}
	t.Run("slot", func(t *testing.T) {
		g := d.Pin()
		defer g.Unpin()
		if g.s == nil {
			t.Fatal("pin on an idle domain overflowed")
		}
		run(t, g)
	})
	t.Run("overflow", func(t *testing.T) {
		pinNested(d, slotCount, func() {
			g := d.Pin()
			defer g.Unpin()
			if g.s != nil {
				t.Fatal("pin past slotCount held pins got a slot")
			}
			run(t, g)
		})
	})
}

//go:noinline
func guardOp(g Guard, r *telemetry.Recorder) {
	tk := g.Op(r, telemetry.OpGet)
	tk.Done()
}

// BenchmarkGuardOp times a hot op's telemetry bracket over a held guard,
// out of line so the call is not folded into the loop: "nil" is the
// disabled cost, "on" the default 1-in-64 sampling, and "unsampled" the
// 63 calls in 64 that only bump the slot's sequence.
func BenchmarkGuardOp(b *testing.B) {
	d, _ := collectDomain()
	g := d.Pin()
	defer g.Unpin()
	for _, arm := range []struct {
		name string
		r    *telemetry.Recorder
	}{
		{"nil", nil},
		{"on", telemetry.New(telemetry.Config{})},
		{"unsampled", telemetry.New(telemetry.Config{SampleShift: 62})},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				guardOp(g, arm.r)
			}
		})
	}
}
