package core

import (
	"bytes"

	"oakmap/internal/chunk"
)

// chunkIndex is the on-heap index over chunk minKeys that every operation
// consults first (§3.1). Only a rebalance changes the chunk list, so the
// index is an immutable sorted array: a rebalance publishes a new copy
// through Map.index, and a lookup is one atomic load plus a binary search.
// The head chunk (nil minKey, -infinity) is not in it: a key below every
// indexed minKey belongs to the head's range.
//
// words[i] is chunk.KeyPrefix(lcp, chunks[i].MinKey()) and top its line
// summary, so the search reads the summary, then one line of words, and
// dereferences a chunk's minKey only where words tie — the chunk's own
// prefix search (chunk.WordRun), one level up. words and top are nil where
// every word would be the same (chunk.PrefixLCP reports the lcp useless);
// every probe then compares minKeys.
//
// The index may lag the chunk list: a lookup lands on a chunk at or before
// the one it wants and locateChunk finishes the walk through Next and
// ReplacedBy forwarding (§4.1).
type chunkIndex struct {
	lcp    []byte
	words  []uint64
	top    []uint64
	chunks []*chunk.Chunk // ascending minKeys, none nil
}

// rank returns how many indexed minKeys sort below key — or at or below
// it, with orEqual. Words decide outside their tie run; minKeys inside it.
func (x *chunkIndex) rank(key []byte, orEqual bool) int {
	lo, hi := 0, len(x.chunks)
	if x.words != nil {
		kw := chunk.KeyPrefix(x.lcp, key)
		lo, hi = chunk.WordRun(x.words, x.top, kw, chunk.WordLine(x.top, kw))
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d := bytes.Compare(x.chunks[mid].MinKey(), key); d < 0 || d == 0 && orEqual {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// floor returns the indexed chunk with the greatest minKey ≤ key, or nil.
func (x *chunkIndex) floor(key []byte) *chunk.Chunk {
	if i := x.rank(key, true); i > 0 {
		return x.chunks[i-1]
	}
	return nil
}

// lower returns the indexed chunk with the greatest minKey < key, or nil.
func (x *chunkIndex) lower(key []byte) *chunk.Chunk {
	if i := x.rank(key, false); i > 0 {
		return x.chunks[i-1]
	}
	return nil
}

// last returns the indexed chunk with the greatest minKey, or nil.
func (x *chunkIndex) last() *chunk.Chunk {
	if n := len(x.chunks); n > 0 {
		return x.chunks[n-1]
	}
	return nil
}

// metaBytes is the index's on-heap cost: one word and one pointer per
// indexed chunk, and the words' summary (lcp aliases a minKey).
func (x *chunkIndex) metaBytes() int64 {
	return int64(len(x.words)+len(x.top)+len(x.chunks)) * 8
}

// splice returns a copy of x whose entries [i, j) are replaced by mid. The
// words of the kept entries are copied while the lcp stays put, which it
// does unless the first or the last minKey moves; otherwise every word is
// recomputed.
func (x *chunkIndex) splice(i, j int, mid []*chunk.Chunk) *chunkIndex {
	n := i + len(mid) + len(x.chunks) - j
	y := &chunkIndex{chunks: make([]*chunk.Chunk, 0, n)}
	y.chunks = append(append(append(y.chunks, x.chunks[:i]...), mid...), x.chunks[j:]...)
	if n == 0 {
		return y
	}
	lcp, useful := chunk.PrefixLCP(y.chunks[0].MinKey(), y.chunks[n-1].MinKey())
	if !useful {
		return y
	}
	y.lcp = lcp
	y.words = make([]uint64, n)
	fresh, at := y.chunks, 0 // the entries whose words are computed
	if x.words != nil && bytes.Equal(x.lcp, lcp) {
		copy(y.words, x.words[:i])
		copy(y.words[i+len(mid):], x.words[j:])
		fresh, at = mid, i
	}
	for k, c := range fresh {
		y.words[at+k] = chunk.KeyPrefix(lcp, c.MinKey())
	}
	y.top = chunk.LineSummary(y.words)
	return y
}

// publishIndex brings the index up to date with the chunk list over
// [lo, hi), the range a rebalance just spliced (lo nil: from the head; hi
// nil: to the end). It replaces the entries whose minKey lies there with
// the live chunks a walk from first — the chain's first chunk — finds
// there now.
//
// Publishers serialise on indexMu and each walks after its own splice, so
// the last publisher for any range has seen every splice that finished
// before it: a concurrent rebalance inside [lo, hi) that this walk missed
// publishes after it and rewrites its own range. At quiesce the index
// equals the chunk list. The cost is one copy of the array plus a walk
// over the rebalanced range, never over the whole list.
func (m *Map) publishIndex(first *chunk.Chunk, lo, hi []byte) {
	m.indexMu.Lock()
	defer m.indexMu.Unlock()
	var mid []*chunk.Chunk
	for c := first; c != nil; c = c.Next() {
		c = chunk.Forward(c)
		k := c.MinKey()
		if k == nil {
			continue // the head chunk
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			break
		}
		// A merge that finished during the walk forwards to a chunk
		// starting at or before one already taken; it supersedes them.
		for len(mid) > 0 && bytes.Compare(mid[len(mid)-1].MinKey(), k) >= 0 {
			mid = mid[:len(mid)-1]
		}
		mid = append(mid, c)
	}
	old := m.index.Load()
	i, j := 0, len(old.chunks)
	if lo != nil {
		i = old.rank(lo, false)
	}
	if hi != nil {
		j = old.rank(hi, false)
	}
	m.index.Store(old.splice(i, j, mid))
}
