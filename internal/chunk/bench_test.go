package chunk

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"testing"

	"oakmap/internal/arena"
)

// The layer benchmark of the prefix search array, side by side: the
// `prefix` arm passes bytes.Compare and gets the on-heap array, the
// `full-compare` arm passes a wrapper with the same order, which opts
// out and dereferences an off-heap key per probe — the parent's search.
// Key shapes: index-first is the repository benchmark's (8-byte
// big-endian index, constant padding to 100 bytes); shared24 puts a
// 24-byte constant in front of it, so only lcp truncation keeps the
// prefix words distinct; random16 is 16 random bytes; ties makes every
// prefix word of a chunk equal, so no array is built; near-ties is the
// array's worst case: all words equal but the last few, so it is built
// and every probe of it falls through to the key.

const (
	benchChunks = 256  // × benchSlots × 24 B of entries: past L2
	benchSlots  = 4096 // key ordinals per chunk; the even ones are resident
	benchKeyLen = 100
)

// fullCompare orders like bytes.Compare without being bytes.Compare.
func fullCompare(a, b []byte) int { return bytes.Compare(a, b) }

var benchShapes = []struct {
	name string
	key  func(c, i int) []byte // ascending in (c, i)
}{
	{"index-first", func(c, i int) []byte {
		k := make([]byte, benchKeyLen)
		binary.BigEndian.PutUint64(k, uint64(c*benchSlots+i))
		return k
	}},
	{"shared24", func(c, i int) []byte {
		k := make([]byte, benchKeyLen)
		copy(k, "tenant-0042/users/by-id/:")
		binary.BigEndian.PutUint64(k[24:], uint64(c*benchSlots+i))
		return k
	}},
	{"random16", nil}, // drawn and sorted in newBenchSet
	{"ties", func(c, i int) []byte { return tiesKey(c, i, false) }},
	{"near-ties", func(c, i int) []byte { return tiesKey(c, i, true) }},
}

// tiesKey: the chunk's first key is its 8-byte base alone and every
// other key continues it with 8 zero bytes, so lcp is the base and every
// prefix word is 0 — except, with near, for the last four ordinals, whose
// word is 1.
func tiesKey(c, i int, near bool) []byte {
	if i == 0 {
		return binary.BigEndian.AppendUint64(nil, uint64(c))
	}
	k := make([]byte, benchKeyLen)
	binary.BigEndian.PutUint64(k, uint64(c))
	if near && i >= benchSlots-4 {
		k[15] = 1
	}
	binary.BigEndian.PutUint64(k[16:], uint64(i))
	return k
}

// benchSet holds one shape's keys, written to the arena in random order
// so the keys of one chunk are scattered as in a map filled at random (a
// rebalance moves entries, never keys).
type benchSet struct {
	alloc *arena.Allocator
	keys  [][]byte // keys[c*benchSlots+i]
	refs  []uint64
}

func newBenchSet(b *testing.B, key func(c, i int) []byte) *benchSet {
	b.Helper()
	s := &benchSet{
		alloc: arena.NewAllocator(arena.NewPool(64<<20, 0)),
		keys:  make([][]byte, benchChunks*benchSlots),
		refs:  make([]uint64, benchChunks*benchSlots),
	}
	b.Cleanup(s.alloc.Close)
	rng := rand.New(rand.NewPCG(1, 2))
	if key == nil {
		for j := range s.keys {
			k := make([]byte, 16)
			binary.BigEndian.PutUint64(k, rng.Uint64())
			binary.BigEndian.PutUint64(k[8:], rng.Uint64())
			s.keys[j] = k
		}
		sort.Slice(s.keys, func(x, y int) bool { return bytes.Compare(s.keys[x], s.keys[y]) < 0 })
	} else {
		for j := range s.keys {
			s.keys[j] = key(j/benchSlots, j%benchSlots)
		}
	}
	for _, j := range rng.Perm(len(s.keys)) {
		r, err := s.alloc.Write(s.keys[j])
		if err != nil {
			b.Fatal(err)
		}
		s.refs[j] = uint64(r)
	}
	return s
}

// link inserts key ordinal j into c the way core does.
func (s *benchSet) link(b *testing.B, c *Chunk, j int) {
	ei, st := c.AllocateEntry(s.refs[j])
	if st == OK {
		_, st = c.PutIfAbsentInList(ei)
	}
	if st != OK {
		b.Fatalf("linking key %d: status %v", j, st)
	}
	c.CASValHandle(ei, 0, uint64(j)+1)
}

// chunks builds the resident (even) ordinals of every chunk: all of them
// in the sorted prefix, or — mixed — a quarter linked behind it in random
// order, as inserts since the last rebalance would be.
func (s *benchSet) chunks(b *testing.B, cmp Comparator, mixed bool) []*Chunk {
	b.Helper()
	rng := rand.New(rand.NewPCG(3, 4))
	out := make([]*Chunk, benchChunks)
	for c := range out {
		var pairs []Pair
		var rest []int
		for i := 0; i < benchSlots; i += 2 {
			j := c*benchSlots + i
			if mixed && i%8 == 6 {
				rest = append(rest, j)
			} else {
				pairs = append(pairs, Pair{KeyRef: s.refs[j], ValHandle: uint64(j) + 1})
			}
		}
		out[c] = NewSorted(s.keys[c*benchSlots], benchSlots, s.alloc, cmp, pairs)
		rng.Shuffle(len(rest), func(x, y int) { rest[x], rest[y] = rest[y], rest[x] })
		for _, j := range rest {
			s.link(b, out[c], j)
		}
	}
	return out
}

var benchArms = []struct {
	name string
	cmp  Comparator
}{
	{"prefix", bytes.Compare},
	{"full-compare", fullCompare},
}

var benchFills = []struct {
	name  string
	mixed bool
}{
	{"sorted", false},
	{"mixed", true},
}

var benchSink int32

// BenchmarkLookUp times lookups of resident keys in two ways. In the
// `independent` loop the next probe does not wait for the last, so the CPU
// overlaps the misses of consecutive lookups and the figure is closer to
// a throughput than to a latency. In the `chain` loop each probe's index
// comes from the previous lookup's result (the value handle it found,
// less what it should be), as a Get's caller waits for the Get: the
// figure is the lookup's own chain of misses, the one a point read pays.
func BenchmarkLookUp(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			s := newBenchSet(b, shape.key)
			for _, fill := range benchFills {
				for _, arm := range benchArms {
					b.Run(fill.name+"/"+arm.name, func(b *testing.B) {
						chunks := s.chunks(b, arm.cmp, fill.mixed)
						// Resident ordinals, uniform; the search keys are
						// copied out back to back so that fetching them is
						// not what the loop measures.
						rng := rand.New(rand.NewPCG(5, 6))
						probes := make([]int, 1<<16)
						probeKeys := make([][]byte, len(probes))
						var flat []byte
						for i := range probes {
							probes[i] = rng.IntN(len(s.keys)/2) * 2
							flat = append(flat, s.keys[probes[i]]...)
						}
						for i, j := range probes {
							n := len(s.keys[j])
							probeKeys[i], flat = flat[:n:n], flat[n:]
						}
						lookUp := func(b *testing.B, p int) uint64 {
							j := probes[p]
							c := chunks[j/benchSlots]
							ei := c.LookUp(probeKeys[p])
							if ei < 0 || c.ValHandle(ei) != uint64(j)+1 {
								b.Fatalf("LookUp(key %d) = %d", j, ei)
							}
							benchSink += ei
							return c.ValHandle(ei) - uint64(j) - 1 // 0, once the lookup is done
						}
						b.Run("independent", func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								lookUp(b, i%len(probes))
							}
						})
						b.Run("chain", func(b *testing.B) {
							b.ReportAllocs()
							var dep uint64
							for i := 0; i < b.N; i++ {
								dep = lookUp(b, (i+int(dep))%len(probes))
							}
						})
					})
				}
			}
		})
	}
}

// BenchmarkNewSorted is the price of the array: building one chunk of
// benchSlots/2 sorted entries, as a rebalance does, reads every key once
// under bytes.Compare and none otherwise. A rebalance builds about three
// entries per insert that led to it (a chunk of benchSlots/2 sorted
// entries is replaced after benchSlots/4 inserts, by chunks holding all
// 3×benchSlots/4), so the cost per insert is three times the per-entry
// difference between the arms.
func BenchmarkNewSorted(b *testing.B) {
	for _, shape := range benchShapes[:2] {
		b.Run(shape.name, func(b *testing.B) {
			s := newBenchSet(b, shape.key)
			pairs := make([][]Pair, benchChunks)
			for c := range pairs {
				for i := 0; i < benchSlots; i += 2 {
					pairs[c] = append(pairs[c], Pair{KeyRef: s.refs[c*benchSlots+i], ValHandle: 1})
				}
			}
			for _, arm := range benchArms {
				b.Run(arm.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c := i % benchChunks
						benchSink += NewSorted(s.keys[c*benchSlots], benchSlots, s.alloc, arm.cmp, pairs[c]).Head()
					}
				})
			}
		})
	}
}

func BenchmarkPutIfAbsentInList(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			s := newBenchSet(b, shape.key)
			for _, fill := range benchFills {
				for _, arm := range benchArms {
					b.Run(fill.name+"/"+arm.name, func(b *testing.B) {
						// The odd ordinals are absent; link them in random
						// order. A round adds benchSlots/8 per chunk on
						// average, half of what triggers a rebalance; then
						// every chunk is rebuilt.
						rng := rand.New(rand.NewPCG(7, 8))
						absent := rng.Perm(len(s.keys) / 2)
						const round = benchChunks * benchSlots / 8
						var chunks []*Chunk
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if i%round == 0 {
								b.StopTimer()
								chunks = s.chunks(b, arm.cmp, fill.mixed)
								rng.Shuffle(len(absent), func(x, y int) { absent[x], absent[y] = absent[y], absent[x] })
								b.StartTimer()
							}
							j := absent[i%round]*2 + 1
							s.link(b, chunks[j/benchSlots], j)
						}
					})
				}
			}
		})
	}
}
