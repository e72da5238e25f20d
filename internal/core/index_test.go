package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"oakmap/internal/chunk"
	"oakmap/internal/faultpoint"
	"oakmap/internal/skiplist"
)

// indexChunks wraps ascending minKeys in chunks that hold nothing.
func indexChunks(keys [][]byte) []*chunk.Chunk {
	out := make([]*chunk.Chunk, len(keys))
	for i, k := range keys {
		out[i] = chunk.New(k, 1, nil, nil)
	}
	return out
}

// checkIndex checks that x holds the chunks of want — ascending minKeys —
// and that its words are what a fresh computation over them gives.
func checkIndex(t testing.TB, x *chunkIndex, want [][]byte) {
	t.Helper()
	if len(x.chunks) != len(want) {
		t.Fatalf("index holds %d chunks; want %d", len(x.chunks), len(want))
	}
	for i, c := range x.chunks {
		if !bytes.Equal(c.MinKey(), want[i]) {
			t.Fatalf("entry %d: minKey %x; want %x", i, c.MinKey(), want[i])
		}
	}
	n := len(want)
	if n > 0 {
		if lcp, useful := chunk.PrefixLCP(want[0], want[n-1]); useful {
			if !bytes.Equal(x.lcp, lcp) || len(x.words) != n {
				t.Fatalf("lcp %x with %d words over %d minKeys; want lcp %x", x.lcp, len(x.words), n, lcp)
			}
			for i, w := range x.words {
				if w != chunk.KeyPrefix(lcp, want[i]) {
					t.Fatalf("word %d = %016x; want %016x", i, w, chunk.KeyPrefix(lcp, want[i]))
				}
			}
			return
		}
	}
	if x.words != nil {
		t.Fatalf("%d words over %d minKeys that need none", len(x.words), n)
	}
}

// checkQueries compares floor, lower and last with sort.Search.
func checkQueries(t testing.TB, x *chunkIndex, want [][]byte, queries [][]byte) {
	t.Helper()
	at := func(i int) []byte {
		if i < 0 {
			return nil
		}
		return want[i]
	}
	minKey := func(c *chunk.Chunk) []byte {
		if c == nil {
			return nil
		}
		return c.MinKey()
	}
	for _, q := range queries {
		fl := sort.Search(len(want), func(i int) bool { return bytes.Compare(want[i], q) > 0 }) - 1
		lw := sort.Search(len(want), func(i int) bool { return bytes.Compare(want[i], q) >= 0 }) - 1
		if got := minKey(x.floor(q)); !bytes.Equal(got, at(fl)) || (got == nil) != (fl < 0) {
			t.Fatalf("floor(%x) = %x; want %x", q, got, at(fl))
		}
		if got := minKey(x.lower(q)); !bytes.Equal(got, at(lw)) || (got == nil) != (lw < 0) {
			t.Fatalf("lower(%x) = %x; want %x", q, got, at(lw))
		}
	}
	if got := minKey(x.last()); !bytes.Equal(got, at(len(want)-1)) || (got == nil) != (len(want) == 0) {
		t.Fatalf("last() = %x; want %x", got, at(len(want)-1))
	}
}

// indexQueries is every minKey, its neighbours one byte longer and
// shorter, and keys just below, inside and above the range of keys that
// start with the lcp of the first and last minKeys.
func indexQueries(keys [][]byte) [][]byte {
	out := [][]byte{{}, {0x00}, {0xFF}, bytes.Repeat([]byte{0xFF}, 40)}
	for _, k := range keys {
		out = append(out, k, append(slices.Clone(k), 0x00), append(slices.Clone(k), 0xFF))
		if len(k) > 0 {
			out = append(out, k[:len(k)-1])
		}
	}
	if len(keys) > 0 {
		lcp, _ := chunk.PrefixLCP(keys[0], keys[len(keys)-1])
		out = append(out, lcp, append(slices.Clone(lcp), 0x00))
		if n := len(lcp); n > 0 {
			below, above := slices.Clone(lcp), slices.Clone(lcp)
			below[n-1]--
			above[n-1]++
			out = append(out, lcp[:n-1], below, above, append(below, 0xFF, 0xFF), append(above, 0x00))
		}
	}
	return out
}

func sortedUniqueKeys(keys [][]byte) [][]byte {
	keys = slices.Clone(keys)
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

const indexShared24 = "tenant-0042/users/by-id/"

var indexShapes = []struct {
	name string
	keys func(r *rand.Rand) [][]byte
}{
	{"index-first", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 120; i++ {
			k := make([]byte, 100)
			binary.BigEndian.PutUint64(k, 1_000_000+r.Uint64N(5000))
			out = append(out, k)
		}
		return out
	}},
	{"shared24", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 120; i++ {
			k := binary.BigEndian.AppendUint64([]byte(indexShared24), r.Uint64N(1<<20))
			out = append(out, append(k, "padding"...))
		}
		return out
	}},
	// Every word ties, so chunk.PrefixLCP reports the lcp useless: no
	// words are built and every probe compares minKeys — the index's
	// no-words path.
	{"all-words-tie", func(r *rand.Rand) (out [][]byte) {
		out = append(out, []byte("base"))
		for i := 0; i < 60; i++ {
			k := append([]byte("base"), make([]byte, 8)...)
			out = append(out, binary.BigEndian.AppendUint32(k, r.Uint32N(500)))
		}
		return out
	}},
	// All words tie but the last few: words are built and almost every
	// probe falls through to the minKey.
	{"near-ties", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 60; i++ {
			k := append([]byte("base"), make([]byte, 8)...)
			if i >= 56 {
				k[11] = 1
			}
			out = append(out, binary.BigEndian.AppendUint32(k, r.Uint32N(500)))
		}
		return out
	}},
	{"nested-prefixes", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 8; i++ {
			k := []byte{byte('a' + i)}
			for n := 0; n < 14; n++ {
				out = append(out, k)
				k = append(slices.Clone(k), []byte{0x00, 0x01, 0xFF, 'm'}[r.IntN(4)])
			}
		}
		return out
	}},
	{"shorter-than-lcp-plus-8", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 80; i++ {
			k := []byte(indexShared24)
			for n := r.IntN(8); n > 0; n-- {
				k = append(k, byte(r.IntN(4)))
			}
			out = append(out, k)
		}
		return out
	}},
}

// TestIndexMatchesReference grows and reshapes an index by random splices,
// as rebalance publishes do — so the first and last minKeys move, and the
// words are reused under an unchanged lcp and rebuilt under a new one —
// and after each splice compares floor, lower and last with sort.Search
// over the minKeys it should hold, starting from the empty index. The
// subtests keep the name of the order they check, bytes.Compare — the
// only key order there is.
func TestIndexMatchesReference(t *testing.T) {
	for _, shape := range indexShapes {
		t.Run(shape.name+"/bytes.Compare", func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewPCG(seed, 29))
				universe := sortedUniqueKeys(shape.keys(r))
				chunks := indexChunks(universe)
				queries := indexQueries(universe)
				held := make([]bool, len(universe))
				x := &chunkIndex{}
				checkQueries(t, x, nil, queries)
				for step := 0; step < 60; step++ {
					a, b := r.IntN(len(universe)), r.IntN(len(universe)+1)
					if a > b {
						a, b = b, a
					}
					// Replace [universe[a], universe[b]): every step but
					// the last few keeps about two thirds.
					var mid []*chunk.Chunk
					for u := a; u < b; u++ {
						held[u] = step < 55 && r.IntN(3) > 0
						if held[u] {
							mid = append(mid, chunks[u])
						}
					}
					i, j := x.rank(universe[a], false), len(x.chunks)
					if b < len(universe) {
						j = x.rank(universe[b], false)
					}
					x = x.splice(i, j, mid)
					var want [][]byte
					for u, h := range held {
						if h {
							want = append(want, universe[u])
						}
					}
					checkIndex(t, x, want)
					checkQueries(t, x, want, queries)
				}
			}
		})
	}
}

// FuzzIndexFloor decodes its input into minKeys and search keys, as
// FuzzPrefixOrder does for a chunk: the first byte is how much of a
// 24-byte common head every key carries, then records of a length byte
// and that many key bytes; odd records are minKeys, even ones are searched
// for with and without the head. The seed corpus (testdata/fuzz/
// FuzzIndexFloor) holds the word-tie shapes.
func FuzzIndexFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		common := []byte(indexShared24)[:int(data[0])%(len(indexShared24)+1)]
		var keys, queries [][]byte
		for i, rest := 0, data[1:]; len(rest) > 0; i++ {
			n := min(int(rest[0])%20, len(rest)-1)
			raw := rest[1 : 1+n]
			rest = rest[1+n:]
			k := append(append([]byte{}, common...), raw...) // never nil: nil is the head's
			if i%2 == 1 {
				keys = append(keys, k)
			} else {
				queries = append(queries, k, raw)
			}
		}
		keys = sortedUniqueKeys(keys)
		queries = append(queries, indexQueries(keys)...)
		// Two halves spliced one after the other, so the second splice
		// either reuses the first's words or rebuilds them.
		half := len(keys) / 2
		x := (&chunkIndex{}).splice(0, 0, indexChunks(keys[:half]))
		x = x.splice(len(x.chunks), len(x.chunks), indexChunks(keys[half:]))
		checkIndex(t, x, keys)
		checkQueries(t, x, keys, queries)
	})
}

// TestIndexMatchesChainAfterChurn races splits and merges: in each round
// two writers put and remove across the same small key range of a map
// with 16-entry chunks, while the window between each splice and its
// publish is held open long enough for the other writer to rebalance the
// new chunks. After each round, at quiesce, the published index must hold
// exactly the chunk list's non-head chunks, in order, and none of them
// retired. A publisher that indexed only its own replacement chunks would
// re-publish a chunk that a concurrent rebalance had already replaced;
// short rounds make it likely that no later rebalance hides that before
// the check.
func TestIndexMatchesChainAfterChurn(t *testing.T) {
	disarmOnExit(t)
	FpRebalanceIndex.Arm(faultpoint.Hook{Decide: func(int64) bool {
		time.Sleep(50 * time.Microsecond)
		return false
	}})
	m := newTestMap(t, 16)
	const n, burst = 128, 100
	for round := 0; round < 200; round++ {
		// Rounds alternate between mostly puts (splits) and mostly
		// removes (merges).
		putShare := 3 + 4*(round%2)
		var writers sync.WaitGroup
		for g := 0; g < 2; g++ {
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(g)))
				for op := 0; op < burst; op++ {
					k := rng.IntN(n)
					var err error
					if rng.IntN(10) < putShare {
						err = m.Put(ik(k), iv(k))
					} else {
						_, err = m.Remove(ik(k))
					}
					if err != nil {
						t.Errorf("op on key %d: %v", k, err)
						return
					}
				}
			}(g)
		}
		writers.Wait()
		if t.Failed() {
			return
		}
		checkIndexIsChain(t, m)
	}
	if m.Rebalances() < 500 {
		t.Fatalf("only %d rebalances: the churn did not split and merge", m.Rebalances())
	}
}

// checkIndexIsChain checks, at quiesce, that the index holds exactly the
// chunk list's non-head chunks, in order, none of them retired.
func checkIndexIsChain(t *testing.T, m *Map) {
	t.Helper()
	var chain []*chunk.Chunk
	var want [][]byte
	for c := m.head.Load(); c != nil; c = c.Next() {
		if c.MinKey() != nil {
			chain = append(chain, c)
			want = append(want, c.MinKey())
		}
	}
	x := m.index.Load()
	for i, c := range x.chunks {
		if c.ReplacedBy() != nil {
			t.Fatalf("index entry %d (minKey %x) is a retired chunk", i, c.MinKey())
		}
		if i < len(chain) && c != chain[i] {
			t.Fatalf("index entry %d is chunk %x; the list has %x", i, c.MinKey(), chain[i].MinKey())
		}
	}
	if len(x.chunks) != len(chain) {
		t.Fatalf("index holds %d chunks; the list %d", len(x.chunks), len(chain))
	}
	checkIndex(t, x, want)
}

// The layer benchmarks of the chunk index, side by side. BenchmarkIndexFloor
// runs one floor query over n minKeys: the `skiplist` arm is the lazy
// skiplist the index used to be, the `flat` arm the sorted array with its
// prefix words. Shapes as in internal/chunk's layer bench: index-first is
// the repository benchmark's 100-byte key (8-byte big-endian index, then
// padding); shared24 puts a 24-byte constant in front of the index, so the
// words discriminate only because the lcp is cut off.
var indexBenchShapes = []struct {
	name string
	key  func(ord uint64) []byte
}{
	{"index-first", func(ord uint64) []byte {
		return binary.BigEndian.AppendUint64(nil, ord)
	}},
	{"shared24", func(ord uint64) []byte {
		return binary.BigEndian.AppendUint64([]byte(indexShared24), ord)
	}},
}

const indexBenchKeyLen = 100

// indexBenchKey pads a shape's key to the benchmark's key length.
func indexBenchKey(key func(uint64) []byte, ord uint64) []byte {
	k := make([]byte, indexBenchKeyLen)
	copy(k, key(ord))
	return k
}

var indexBenchSink int

func BenchmarkIndexFloor(b *testing.B) {
	const span = 1000 // key ordinals per chunk
	for _, shape := range indexBenchShapes {
		for _, n := range []int{60, 600, 6000} {
			minKeys := make([][]byte, n)
			for i := range minKeys {
				minKeys[i] = indexBenchKey(shape.key, uint64((i+1)*span))
			}
			chunks := indexChunks(minKeys)
			flat := (&chunkIndex{}).splice(0, 0, chunks)
			list := skiplist.New[*chunk.Chunk](bytes.Compare)
			for _, c := range chunks {
				list.Put(c.MinKey(), c)
			}
			// Uniform ordinals over the indexed range; the search keys
			// sit back to back so that fetching them is not what the loop
			// measures.
			rng := rand.New(rand.NewPCG(5, 6))
			probes := make([][]byte, 1<<14)
			want := make([]*chunk.Chunk, len(probes))
			buf := make([]byte, 0, len(probes)*indexBenchKeyLen)
			for i := range probes {
				ord := uint64(span + rng.IntN(n*span))
				buf = append(buf, indexBenchKey(shape.key, ord)...)
				probes[i] = buf[len(buf)-indexBenchKeyLen:]
				want[i] = chunks[ord/span-1]
			}
			arms := []struct {
				name  string
				floor func(key []byte) *chunk.Chunk
			}{
				{"skiplist", func(key []byte) *chunk.Chunk {
					e, _ := list.Floor(key)
					return e.Value
				}},
				{"flat", func(key []byte) *chunk.Chunk { return flat.floor(key) }},
			}
			for _, arm := range arms {
				b.Run(fmt.Sprintf("%s/%d/%s", shape.name, n, arm.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						j := i % len(probes)
						if arm.floor(probes[j]) != want[j] {
							b.Fatalf("floor(%x) missed its chunk", probes[j])
						}
						indexBenchSink += j
					}
				})
			}
		}
	}
}

// BenchmarkIndexPublish is the price a rebalance pays to publish: each
// iteration replaces one random chunk of a list of n with a fresh chunk
// of the same range, splices it in and publishes it — a copy of the
// array plus a walk over the one-chunk range.
func BenchmarkIndexPublish(b *testing.B) {
	for _, n := range []int{600, 6000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			m := &Map{}
			list := make([]*chunk.Chunk, n+1) // list[0] is the head
			list[0] = chunk.New(nil, 1, nil, nil)
			for i := 1; i <= n; i++ {
				list[i] = chunk.New(indexBenchKey(indexBenchShapes[0].key, uint64(i)), 1, nil, nil)
				list[i-1].SetNext(list[i])
			}
			m.index.Store((&chunkIndex{}).splice(0, 0, list[1:]))
			rng := rand.New(rand.NewPCG(7, 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := 1 + rng.IntN(n)
				old, fresh := list[p], chunk.New(list[p].MinKey(), 1, nil, nil)
				var hi []byte
				if tail := old.Next(); tail != nil {
					hi = tail.MinKey()
				}
				fresh.SetNext(old.Next())
				old.SetReplacedBy(fresh)
				list[p-1].SetNext(fresh)
				list[p] = fresh
				m.publishIndex(fresh, old.MinKey(), hi)
			}
			b.StopTimer()
			if got := len(m.index.Load().chunks); got != n {
				b.Fatalf("index holds %d chunks after the run; want %d", got, n)
			}
		})
	}
}
