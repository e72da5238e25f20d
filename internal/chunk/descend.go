package chunk

// DescIter is the paper's intra-chunk descending iterator (§4.2, Fig. 2).
// It walks the ascending entries list one "bypass" at a time, saving the
// traversed entries on a stack and popping them in reverse. Between
// bypasses it steps one cell back in the sorted prefix, so a descending
// scan costs O(1) amortized lookups per chunk instead of one O(log N)
// lookup per key as in skiplists.
type DescIter struct {
	c         *Chunk
	stack     []int32
	anchorPos int   // prefix position where the last refill started
	stopEntry int32 // entry at which the next refill walk stops
	done      bool  // the head run has been performed
}

// NewDescIter creates a descending iterator over entries with key < hi
// (nil hi = no upper bound). The iterator yields raw entry indexes; the
// caller filters ⊥/deleted values and applies the lower bound.
func (c *Chunk) NewDescIter(hi []byte) *DescIter {
	it := &DescIter{}
	it.Reset(c, hi)
	return it
}

// Reset re-aims the iterator at c's entries with key < hi, as
// NewDescIter does, keeping the stack's backing array: a scan that holds
// one DescIter grows its stack once, not once per chunk.
func (it *DescIter) Reset(c *Chunk, hi []byte) {
	*it = DescIter{c: c, stack: it.stack[:0], stopEntry: none}
	var p int
	if hi == nil {
		p = c.sorted - 1
	} else {
		p = int(c.prefixFloor(hi))
	}
	it.anchorPos = p
	var start int32
	if p < 0 {
		start = c.head.Load()
		it.done = true // the initial run already starts at the list head
	} else {
		start = int32(p)
	}
	for cur := start; cur != none; cur = c.NextEntry(cur) {
		if hi != nil && c.cmp(c.keyAt(cur), hi) >= 0 {
			break
		}
		it.stack = append(it.stack, cur)
	}
	it.stopEntry = start
}

// Next returns the next entry index in descending key order, or -1 when
// the chunk is exhausted.
func (it *DescIter) Next() int32 {
	for {
		if n := len(it.stack); n > 0 {
			e := it.stack[n-1]
			it.stack = it.stack[:n-1]
			return e
		}
		if it.done {
			return none
		}
		it.anchorPos--
		var start int32
		if it.anchorPos < 0 {
			start = it.c.head.Load()
			it.done = true
		} else {
			start = int32(it.anchorPos)
		}
		for cur := start; cur != none && cur != it.stopEntry; cur = it.c.NextEntry(cur) {
			it.stack = append(it.stack, cur)
		}
		it.stopEntry = start
	}
}
