package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"oakmap/internal/arena"
)

// reverseCompare is a custom order: it must leave the prefix array off.
func reverseCompare(a, b []byte) int { return bytes.Compare(b, a) }

// sortedUnique returns keys deduplicated and ascending under cmp.
func sortedUnique(cmp Comparator, keys [][]byte) [][]byte {
	out := append([][]byte(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return cmp(out[i], out[j]) < 0 })
	n := 0
	for i, k := range out {
		if i == 0 || cmp(out[n-1], k) != 0 {
			out[n] = k
			n++
		}
	}
	return out[:n]
}

// inPrefix decides, from the key alone, whether a resident key goes into
// the sorted prefix (3 in 4) or is linked behind it.
func inPrefix(k []byte) bool {
	s := len(k)
	for _, b := range k {
		s += int(b)
	}
	return s%4 != 0
}

// checkAgainstReference builds a chunk over resident — part in the sorted
// prefix, part linked — and asserts that LookUp, FirstGE, NewDescIter and
// PutIfAbsentInList agree with a cmp-sorted reference for every resident
// key, every extra query and, when the chunk has a prefix array, keys
// around its lcp range; the queries absent from the chunk are then
// inserted and everything is checked again. isBytesCompare says whether
// cmp is bytes.Compare itself: exactly then the chunk must have the
// array, unless its first and last word are equal.
func checkAgainstReference(t testing.TB, cmp Comparator, isBytesCompare bool, resident, extra [][]byte) {
	t.Helper()
	alloc := arena.NewAllocator(arena.NewPool(1<<20, 0))
	defer alloc.Close()
	write := func(k []byte) uint64 {
		r, err := alloc.Write(k)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(r)
	}

	ref := sortedUnique(cmp, resident)
	var pairs []Pair
	var linked [][]byte
	for _, k := range ref {
		if inPrefix(k) {
			pairs = append(pairs, Pair{KeyRef: write(k), ValHandle: 1})
		} else {
			linked = append(linked, k)
		}
	}
	c := NewSorted(nil, 4*(len(resident)+len(extra)+16), alloc, cmp, pairs)
	switch {
	case !isBytesCompare:
		if c.prefix != nil {
			t.Fatal("prefix array under a custom comparator")
		}
	case c.prefix == nil:
		if len(pairs) > 0 {
			first, last := c.Key(0), c.Key(int32(len(pairs)-1))
			if _, useful := PrefixLCP(first, last); useful {
				t.Fatalf("no prefix array over sorted entries from %x to %x", first, last)
			}
		}
	default:
		if len(c.prefix) != len(pairs) || c.prefix[0] == c.prefix[len(pairs)-1] {
			t.Fatalf("prefix array: %d words over %d sorted entries, first %x, last %x", len(c.prefix), len(pairs), c.prefix[0], c.prefix[len(c.prefix)-1])
		}
		for i := 1; i < len(c.prefix); i++ {
			if c.prefix[i-1] > c.prefix[i] {
				t.Fatalf("prefix array not ascending at %d", i)
			}
		}
		extra = append(extra, around(c.lcp)...)
	}

	link := func(k []byte) (int32, Status) {
		ei, st := c.AllocateEntry(write(k))
		if st != OK {
			t.Fatalf("AllocateEntry: %v", st)
		}
		lei, st := c.PutIfAbsentInList(ei)
		if st == OK {
			c.CASValHandle(lei, 0, 1)
		}
		return lei, st
	}
	rand.New(rand.NewPCG(9, uint64(len(ref)))).Shuffle(len(linked), func(i, j int) { linked[i], linked[j] = linked[j], linked[i] })
	for _, k := range linked {
		if _, st := link(k); st != OK {
			t.Fatalf("linking resident %x: %v", k, st)
		}
	}

	check := func() {
		t.Helper()
		var list [][]byte
		for cur := c.Head(); cur != none; cur = c.NextEntry(cur) {
			list = append(list, c.Key(cur))
		}
		if len(list) != len(ref) {
			t.Fatalf("list holds %d keys, reference %d", len(list), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(list[i], ref[i]) {
				t.Fatalf("list[%d] = %x, reference %x", i, list[i], ref[i])
			}
		}
		for _, q := range append(append([][]byte(nil), ref...), extra...) {
			if q == nil {
				q = []byte{} // a nil bound means "none" to FirstGE and NewDescIter
			}
			w := sort.Search(len(ref), func(i int) bool { return cmp(ref[i], q) >= 0 })
			present := w < len(ref) && cmp(ref[w], q) == 0

			// The search's own contract: the floor of the sorted prefix
			// or the index before it. An earlier index would still give
			// right answers, through a longer list walk.
			if p := c.prefixFloor(q); p >= 0 && cmp(c.Key(p), q) >= 0 || int(p)+2 < c.SortedCount() && cmp(c.Key(p+2), q) < 0 {
				t.Fatalf("prefixFloor(%x) = %d: neither the floor of the sorted prefix nor the index before it", q, p)
			}
			if ei := c.LookUp(q); present != (ei != none) || (present && !bytes.Equal(c.Key(ei), q)) {
				t.Fatalf("LookUp(%x) = %d, present %v", q, ei, present)
			}
			if ei := c.FirstGE(q); (w == len(ref)) != (ei == none) || (ei != none && !bytes.Equal(c.Key(ei), ref[w])) {
				t.Fatalf("FirstGE(%x) = %d, want reference[%d]", q, ei, w)
			}
			it, n := c.NewDescIter(q), w
			for ei := it.Next(); ei != none; ei = it.Next() {
				n--
				if n < 0 || !bytes.Equal(c.Key(ei), ref[n]) {
					t.Fatalf("NewDescIter(%x) step %d yields %x", q, w-n, c.Key(ei))
				}
			}
			if n != 0 {
				t.Fatalf("NewDescIter(%x) stopped %d keys early", q, n)
			}
			if present {
				if lei, st := link(q); st != Exists || !bytes.Equal(c.Key(lei), q) {
					t.Fatalf("PutIfAbsentInList(resident %x) = %d, %v", q, lei, st)
				}
			}
		}
	}
	check()

	// Inserting finds the right predecessor iff the list stays the
	// reference order with the key added.
	for _, q := range extra {
		w := sort.Search(len(ref), func(i int) bool { return cmp(ref[i], q) >= 0 })
		if w < len(ref) && cmp(ref[w], q) == 0 {
			continue
		}
		if _, st := link(q); st != OK {
			t.Fatalf("PutIfAbsentInList(absent %x): %v", q, st)
		}
		ref = append(ref[:w], append([][]byte{q}, ref[w:]...)...)
	}
	check()
}

// around returns search keys just inside and outside the range of keys
// that start with lcp.
func around(lcp []byte) [][]byte {
	out := [][]byte{{}, {0x00}, {0xFF}, bytes.Repeat([]byte{0xFF}, 40), lcp, append(append([]byte(nil), lcp...), 0x00)}
	if n := len(lcp); n > 0 {
		out = append(out, lcp[:n-1])
		below, above := append([]byte(nil), lcp...), append([]byte(nil), lcp...)
		below[n-1]--
		above[n-1]++
		out = append(out, below, above, append(below, 0xFF, 0xFF), append(above, 0x00))
	}
	return out
}

const shared24 = "tenant-0042/users/by-id/"

var prefixShapes = []struct {
	name string
	keys func(r *rand.Rand) [][]byte
}{
	{"index-first", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 200; i++ {
			k := make([]byte, 100)
			binary.BigEndian.PutUint64(k, 1_000_000+r.Uint64N(5000))
			out = append(out, k)
		}
		return out
	}},
	{"shared24", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 200; i++ {
			k := binary.BigEndian.AppendUint64([]byte(shared24), r.Uint64N(1<<20))
			out = append(out, append(k, "padding"...))
		}
		return out
	}},
	{"shorter-than-lcp-plus-8", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 150; i++ {
			k := []byte(shared24)
			for n := r.IntN(8); n > 0; n-- {
				k = append(k, byte(r.IntN(4)))
			}
			out = append(out, k)
		}
		return out
	}},
	{"nested-prefixes", func(r *rand.Rand) (out [][]byte) {
		for i := 0; i < 12; i++ {
			k := []byte{byte('a' + i)}
			for n := 0; n < 14; n++ {
				out = append(out, k)
				k = append(append([]byte(nil), k...), []byte{0x00, 0x01, 0xFF, 'm'}[r.IntN(4)])
			}
		}
		return out
	}},
	{"zero-and-ff-tails", func(r *rand.Rand) (out [][]byte) {
		for _, base := range []string{"", "k", shared24} {
			for n := 0; n < 12; n++ {
				out = append(out,
					append([]byte(base), bytes.Repeat([]byte{0x00}, n)...),
					append([]byte(base), bytes.Repeat([]byte{0xFF}, n)...))
			}
		}
		return out
	}},
	{"with-empty-key", func(r *rand.Rand) (out [][]byte) {
		out = append(out, []byte{})
		for i := 0; i < 60; i++ {
			k := make([]byte, r.IntN(12))
			for j := range k {
				k[j] = []byte{0x00, 0x01, 'a', 0xFE, 0xFF}[r.IntN(5)]
			}
			out = append(out, k)
		}
		return out
	}},
	// Runs of 1–20 keys share a prefix word each: the lcp stops before
	// the run byte, and the tail that orders a run lies past the word.
	// With dozens of runs the sorted prefix holds tie runs that cross its
	// 8-word lines at every offset. Around each run sit keys it does not
	// hold: the run's word with a tail below and above the run's tails,
	// and the words just below and above it.
	{"tie-runs", func(r *rand.Rand) (out [][]byte) {
		key := func(run byte, tail uint16) []byte {
			k := append([]byte("run/"), run, 0, 0, 0, 0, 0, 0, 0)
			return binary.BigEndian.AppendUint16(k, tail)
		}
		for run := byte(2); run < 2+2*40; run += 2 {
			n := 1 + r.IntN(20)
			for t := 1; t <= n; t++ {
				out = append(out, key(run, uint16(2*t)))
			}
			out = append(out, key(run, 0), key(run, 0xFFFF), key(run-1, 0), key(run+1, 0))
		}
		return out
	}},
	{"every-prefix-ties", func(r *rand.Rand) (out [][]byte) {
		out = append(out, []byte("base"))
		for i := 0; i < 80; i++ {
			k := append([]byte("base"), make([]byte, 8)...)
			out = append(out, binary.BigEndian.AppendUint32(k, r.Uint32N(500)))
		}
		return out
	}},
}

func TestPrefixSearchMatchesReference(t *testing.T) {
	orders := []struct {
		name  string
		cmp   Comparator
		array bool
	}{
		{"bytes.Compare", bytes.Compare, true},
		{"wrapped", fullCompare, false},
		{"reversed", reverseCompare, false},
	}
	for _, shape := range prefixShapes {
		for _, o := range orders {
			t.Run(shape.name+"/"+o.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 5; seed++ {
					r := rand.New(rand.NewPCG(seed, 77))
					keys := shape.keys(r)
					// Half the keys reside; the other half and close
					// variants of the residents are searched for and
					// then inserted.
					r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
					resident, extra := keys[:len(keys)/2], keys[len(keys)/2:]
					for _, k := range resident[:len(resident)/4] {
						extra = append(extra, append(append([]byte(nil), k...), 0x00))
						if len(k) > 0 {
							extra = append(extra, k[:len(k)-1])
						}
					}
					checkAgainstReference(t, o.cmp, o.array, resident, extra)
				}
			})
		}
	}
}

// A nil comparator means bytes.Compare, prefix array included.
func TestNilComparatorIsBytewise(t *testing.T) {
	f := newFixture(t)
	c := NewSorted(nil, 8, f.alloc, nil, []Pair{{KeyRef: f.keyRef(t, 1), ValHandle: 1}, {KeyRef: f.keyRef(t, 2), ValHandle: 2}})
	if c.prefix == nil {
		t.Fatal("nil comparator built no prefix array")
	}
	if ei := c.LookUp(kb(2)); ei < 0 || c.ValHandle(ei) != 2 {
		t.Fatalf("LookUp = %d", ei)
	}
	if New(nil, 8, f.alloc, nil).LookUp(kb(2)) != none {
		t.Fatal("LookUp on empty chunk")
	}
}

// KeyPrefix must be monotone under bytes.Compare for any lcp, including
// keys below, inside and above the range of keys starting with lcp.
func TestKeyPrefixMonotone(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xFE, 0xFF}
	draw := func(max int) []byte {
		k := make([]byte, r.IntN(max+1))
		for i := range k {
			k[i] = alphabet[r.IntN(len(alphabet))]
		}
		return k
	}
	for i := 0; i < 200_000; i++ {
		lcp := draw(4)
		a, b := draw(14), draw(14)
		if r.IntN(2) == 0 { // most interesting keys start with lcp
			a = append(append([]byte(nil), lcp...), a...)
		}
		if r.IntN(2) == 0 {
			b = append(append([]byte(nil), lcp...), b...)
		}
		if bytes.Compare(a, b) > 0 {
			a, b = b, a
		}
		if pa, pb := KeyPrefix(lcp, a), KeyPrefix(lcp, b); pa > pb {
			t.Fatalf("lcp %x: %x ≤ %x but prefixes %016x > %016x", lcp, a, b, pa, pb)
		}
	}
}

// FuzzPrefixOrder decodes its input into a key set and checks the chunk
// against the reference under bytes.Compare. The first byte is how much
// of a 24-byte common prefix every key carries; then records of a length
// byte and that many key bytes. Odd records reside, even ones are
// searched for and inserted, with and without the common prefix. The seed
// corpus is testdata/fuzz/FuzzPrefixOrder.
func FuzzPrefixOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		common := []byte(shared24)[:int(data[0])%(len(shared24)+1)]
		var resident, extra [][]byte
		for i, rest := 0, data[1:]; len(rest) > 0; i++ {
			n := min(int(rest[0])%20, len(rest)-1)
			raw := rest[1 : 1+n]
			rest = rest[1+n:]
			k := append(append([]byte(nil), common...), raw...)
			if i%2 == 1 {
				resident = append(resident, k)
			} else {
				extra = append(extra, k, raw)
			}
		}
		if len(resident) == 0 {
			return
		}
		checkAgainstReference(t, bytes.Compare, true, resident, append(extra, around(common)...))
	})
}

// The array discriminates behind a shared head because lcp is cut off.
func TestPrefixTruncatesCommonHead(t *testing.T) {
	f := newFixture(t)
	var pairs []Pair
	for _, k := range []string{"user:alice", "user:bob", "user:carol"} {
		r, err := f.alloc.Write([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, Pair{KeyRef: uint64(r), ValHandle: 1})
	}
	c := NewSorted(nil, 8, f.alloc, bytes.Compare, pairs)
	want := []uint64{0x616c696365000000, 0x626f620000000000, 0x6361726f6c000000} // alice, bob, carol
	if string(c.lcp) != "user:" || fmt.Sprint(c.prefix) != fmt.Sprint(want) {
		t.Fatalf("lcp %q, prefix words %x", c.lcp, c.prefix)
	}
}
