package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The load generator is the benchmark's own: a splitmix64 stream per
// (seed, stream id), uniform and zipfian choosers over it, the key
// encoder and the value stamper. Nothing here reads a clock or a global
// random source, so one seed always yields the same op sequence and the
// program under test only ever sees generated inputs.

const (
	keyLen = 100 // paper §5: 100-byte keys
	// stampLen is the verified value prefix: the 8-byte key index and an
	// 8-byte counter. Every read checks it; the rest of the value is a
	// pattern derived from the index, checked in full on 1 read in 64.
	stampLen = 16
)

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream): worker w of a
// run draws from stream w, ingestion from its own stream, and so on.
func newRNG(seed, stream uint64) rng {
	return rng{s: mix64(seed+0x9E3779B97F4A7C15) ^ mix64(stream*0xD1342543DE82EF95+1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// intn returns a uniform integer in [0, n) (multiply-shift, no modulo bias
// worth the name at these n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by the
// closed-form inversion of Gray et al. that YCSB uses. Ranks are then
// scattered over the key space with mix64 so the hot set is not one
// contiguous key range (one chunk).
type zipf struct {
	n                               uint64
	alpha, zetan, eta, halfPowTheta float64
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// index maps a drawn rank to a key index.
func (z *zipf) index(r *rng) uint64 { return mix64(z.rank(r)) % z.n }

// keyPad fills key bytes 8..99; the index in bytes 0..7 decides order.
const keyPad = "oak-benchmark-key-padding:"

// newKey returns a key buffer with the padding in place; setKey then only
// rewrites the index.
func newKey() []byte {
	k := make([]byte, keyLen)
	for i := 8; i < keyLen; i++ {
		k[i] = keyPad[(i-8)%len(keyPad)]
	}
	return k
}

// setKey stamps idx big-endian, so byte order equals numeric order.
func setKey(k []byte, idx uint64) { binary.BigEndian.PutUint64(k, idx) }

func keyIndex(k []byte) uint64 { return binary.BigEndian.Uint64(k) }

// validKey reports whether k is a well-formed benchmark key.
func validKey(k []byte) bool {
	if len(k) != keyLen {
		return false
	}
	for i := 8; i < keyLen; i++ {
		if k[i] != keyPad[(i-8)%len(keyPad)] {
			return false
		}
	}
	return true
}

func patternWord(idx uint64, off int) uint64 {
	return idx*0x9E3779B97F4A7C15 + uint64(off)
}

// fillValue stamps v (len ≥ stampLen) for key idx: index, counter, then
// the index-derived pattern. The pattern does not depend on the counter,
// so an in-place counter increment keeps the value valid.
func fillValue(v []byte, idx, counter uint64) {
	binary.BigEndian.PutUint64(v, idx)
	binary.BigEndian.PutUint64(v[8:], counter)
	off := stampLen
	for ; off+8 <= len(v); off += 8 {
		binary.LittleEndian.PutUint64(v[off:], patternWord(idx, off))
	}
	for ; off < len(v); off++ {
		v[off] = byte(idx) + byte(off)
	}
}

// checkStamp is the cheap per-read check: a plausible length and the
// right key index.
func checkStamp(v []byte, idx uint64, minLen, maxLen int) bool {
	return len(v) >= minLen && len(v) <= maxLen && binary.BigEndian.Uint64(v) == idx
}

// checkValue is the full check: stamp plus every pattern byte, which
// catches torn or misplaced values.
func checkValue(v []byte, idx uint64, minLen, maxLen int) bool {
	if !checkStamp(v, idx, minLen, maxLen) {
		return false
	}
	off := stampLen
	for ; off+8 <= len(v); off += 8 {
		if binary.LittleEndian.Uint64(v[off:]) != patternWord(idx, off) {
			return false
		}
	}
	for ; off < len(v); off++ {
		if v[off] != byte(idx)+byte(off) {
			return false
		}
	}
	return true
}

// permutation returns 0..n-1 shuffled by the given stream: the random
// ingestion order of the paper's Fig. 3 stage.
func permutation(n uint64, r rng) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// opKind is one logical operation of a workload.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opPutIfAbsent
	opRemove
	opCompute
	opAscend
	opDescend
	opMGet
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "putIfAbsent", "remove", "compute", "ascend", "descend", "mget"}

func (k opKind) String() string { return opNames[k] }

// op is one generated operation. For scans idx is the first key of the
// range; for MGET the 8 keys are idx and the next 7 draws, which the
// caller takes with nextIndex.
type op struct {
	kind opKind
	idx  uint64
	vlen int
}

// opGen turns a workload spec and a stream into an op sequence.
type opGen struct {
	r    rng
	spec *spec
	zipf *zipf
	cum  [numOpKinds]uint64 // cumulative mix, out of 100
	span uint64             // indices a uniform draw may start at
}

func newOpGen(s *spec, z *zipf, seed, stream uint64) *opGen {
	g := &opGen{r: newRNG(seed, stream), spec: s, zipf: z}
	var c uint64
	for k, share := range s.mix {
		c += uint64(share)
		g.cum[k] = c
	}
	if c != 100 {
		panic("benchmark: workload mix does not sum to 100")
	}
	g.span = s.keys
	if s.mix[opAscend]+s.mix[opDescend] > 0 {
		g.span = s.keys - scanLen + 1 // every scan finds scanLen entries
	}
	return g
}

func (g *opGen) nextIndex() uint64 {
	if g.zipf != nil {
		return g.zipf.index(&g.r)
	}
	return g.r.intn(g.span)
}

func (g *opGen) next() op {
	u := g.r.intn(100)
	k := opKind(0)
	for u >= g.cum[k] {
		k++
	}
	o := op{kind: k, idx: g.nextIndex()}
	if k == opPut || k == opPutIfAbsent {
		o.vlen = g.spec.valLen(g.r.next())
	}
	return o
}
