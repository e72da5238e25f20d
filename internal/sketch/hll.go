// Package sketch provides compact, fixed-size data sketches for
// approximate aggregation, standing in for the DataSketches library that
// Druid's rollup indexes embed in their values (§6: "Complex aggregates
// (e.g., unique count and quantiles) are embodied through sketches").
//
// Both sketches here have constant-size binary states designed to live
// inside Oak values and be updated in place through the ZC compute API:
// HLL for unique counts and a P² estimator for quantiles.
package sketch

import "math"

// HLL is a HyperLogLog unique-count sketch with 2^p registers of one
// byte each. It estimates set cardinality with a standard error of
// roughly 1.04/sqrt(2^p).
type HLL struct {
	p    uint8
	regs []byte
}

// NewHLL creates a sketch with 2^p registers; p must be in [4, 16].
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 16 {
		panic("sketch: HLL precision out of range [4,16]")
	}
	return &HLL{p: p, regs: make([]byte, 1<<p)}
}

// HLLStateSize returns the serialized size of an HLL with precision p.
func HLLStateSize(p uint8) int { return 1 + (1 << p) }

// Hash64 is a splitmix64-style avalanche, good enough to feed HLL.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashBytes hashes a byte string (FNV-1a 64 followed by avalanche).
func HashBytes(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return Hash64(h)
}

// Add inserts a pre-hashed item.
func (h *HLL) Add(hash uint64) {
	idx := hash >> (64 - h.p)
	rest := hash<<h.p | 1<<(uint64(h.p)-1) // ensure termination
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the estimated number of distinct items added.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction (linear counting).
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// Merge folds other into h (register-wise max). Panics on precision
// mismatch.
func (h *HLL) Merge(other *HLL) {
	if h.p != other.p {
		panic("sketch: HLL precision mismatch")
	}
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
}

// AppendState serializes the sketch: [p u8][registers...].
func (h *HLL) AppendState(dst []byte) []byte {
	dst = append(dst, h.p)
	return append(dst, h.regs...)
}

// HLLFromState deserializes a sketch (copying the state).
func HLLFromState(state []byte) *HLL {
	p := state[0]
	h := NewHLL(p)
	copy(h.regs, state[1:1+(1<<p)])
	return h
}

// HLLAddInPlace updates a serialized HLL state in situ — the operation
// Druid's rollup performs inside putIfAbsentComputeIfPresent, without
// materializing the sketch on-heap.
func HLLAddInPlace(state []byte, hash uint64) {
	p := state[0]
	regs := state[1 : 1+(1<<p)]
	idx := hash >> (64 - p)
	rest := hash<<p | 1<<(uint64(p)-1)
	rank := byte(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > regs[idx] {
		regs[idx] = rank
	}
}

// HLLEstimateState estimates cardinality directly from a serialized
// state without copying.
func HLLEstimateState(state []byte) float64 {
	p := state[0]
	h := HLL{p: p, regs: state[1 : 1+(1<<p)]}
	return h.Estimate()
}
