package sketch

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 50000} {
		h := NewHLL(11) // ~2.3% standard error
		for i := 0; i < n; i++ {
			h.Add(Hash64(uint64(i)))
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.10 {
			t.Fatalf("n=%d: estimate %.0f, relative error %.3f > 10%%", n, est, relErr)
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := NewHLL(10)
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			h.Add(Hash64(uint64(i)))
		}
	}
	est := h.Estimate()
	if est < 80 || est > 130 {
		t.Fatalf("estimate %.0f for 100 distinct items added 50×", est)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := NewHLL(10), NewHLL(10)
	for i := 0; i < 5000; i++ {
		a.Add(Hash64(uint64(i)))
		b.Add(Hash64(uint64(i + 2500))) // half overlapping
	}
	a.Merge(b)
	est := a.Estimate()
	if math.Abs(est-7500)/7500 > 0.10 {
		t.Fatalf("merged estimate %.0f; want ≈7500", est)
	}
}

func TestHLLStateRoundTrip(t *testing.T) {
	f := func(items []uint64) bool {
		h := NewHLL(8)
		for _, it := range items {
			h.Add(Hash64(it))
		}
		state := h.AppendState(nil)
		if len(state) != HLLStateSize(8) {
			return false
		}
		h2 := HLLFromState(state)
		return h2.Estimate() == h.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHLLInPlaceMatchesObject(t *testing.T) {
	h := NewHLL(9)
	state := NewHLL(9).AppendState(nil)
	for i := 0; i < 10000; i++ {
		hash := Hash64(uint64(i) * 7)
		h.Add(hash)
		HLLAddInPlace(state, hash)
	}
	if got, want := HLLEstimateState(state), h.Estimate(); got != want {
		t.Fatalf("in-place estimate %.1f != object estimate %.1f", got, want)
	}
}

func TestHLLPrecisionBounds(t *testing.T) {
	for _, p := range []uint8{3, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHLL(%d) did not panic", p)
				}
			}()
			NewHLL(p)
		}()
	}
}

func TestHashBytesSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		h := HashBytes([]byte{byte(i), byte(i >> 8)})
		if seen[h] {
			t.Fatal("hash collision in trivial input set")
		}
		seen[h] = true
	}
}

func TestP2Median(t *testing.T) {
	p := NewP2(0.5)
	rng := rand.New(rand.NewPCG(1, 2))
	var all []float64
	for i := 0; i < 50000; i++ {
		x := rng.NormFloat64()*10 + 100
		p.Add(x)
		all = append(all, x)
	}
	sort.Float64s(all)
	exact := all[len(all)/2]
	if math.Abs(p.Estimate()-exact) > 1.0 {
		t.Fatalf("P2 median %.2f vs exact %.2f", p.Estimate(), exact)
	}
}

func TestP2TailQuantile(t *testing.T) {
	p := NewP2(0.99)
	rng := rand.New(rand.NewPCG(3, 4))
	var all []float64
	for i := 0; i < 100000; i++ {
		x := rng.ExpFloat64() * 50
		p.Add(x)
		all = append(all, x)
	}
	sort.Float64s(all)
	exact := all[int(0.99*float64(len(all)))]
	if math.Abs(p.Estimate()-exact)/exact > 0.15 {
		t.Fatalf("P2 p99 %.2f vs exact %.2f", p.Estimate(), exact)
	}
}

func TestP2SmallSamples(t *testing.T) {
	p := NewP2(0.5)
	if !math.IsNaN(p.Estimate()) {
		t.Fatal("empty estimator should return NaN")
	}
	p.Add(7)
	if p.Estimate() != 7 {
		t.Fatalf("single sample estimate %.1f", p.Estimate())
	}
	p.Add(1)
	p.Add(9)
	if e := p.Estimate(); e != 7 {
		t.Fatalf("3-sample median %.1f; want 7", e)
	}
	if p.Count() != 3 {
		t.Fatalf("Count = %d", p.Count())
	}
}

func TestP2StateRoundTripAndInPlace(t *testing.T) {
	p := NewP2(0.9)
	state := NewP2(0.9).AppendState(nil)
	if len(state) != P2StateSize {
		t.Fatalf("state size %d != %d", len(state), P2StateSize)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 5000; i++ {
		x := rng.Float64() * 1000
		p.Add(x)
		P2AddInPlace(state, x)
	}
	if got, want := P2EstimateState(state), p.Estimate(); got != want {
		t.Fatalf("in-place %.3f != object %.3f", got, want)
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2(%v) did not panic", q)
				}
			}()
			NewP2(q)
		}()
	}
}
