// Package chunk implements Oak's chunk objects (§3.1, §4.1): large blocks
// of contiguous key ranges holding an entries array whose prefix is
// sorted and whose suffix is filled on demand, with new entries linked
// into an ascending singly-linked list through "bypasses".
//
// A chunk entry refers to an off-heap key (an arena.Ref) and to a value
// handle (a vheader index). Entries are allocated with fetch-and-add,
// linked with CAS, and never physically unlinked; rebalancing replaces
// whole chunks. Update operations synchronize with the rebalancer through
// publish/unpublish; read-only operations (lookUp, scans) proceed during
// rebalances without aborting, exactly as in the paper.
package chunk

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"oakmap/internal/arena"
	"oakmap/internal/faultpoint"
)

// Fault-injection points (no-ops unless a test arms them).
var (
	// FpLinkCAS simulates losing the entry-link CAS race in
	// PutIfAbsentInList: when it fires, the linker re-scans as if a
	// concurrent insert had won, exercising the retry path that natural
	// scheduling hits only under heavy same-range contention.
	FpLinkCAS = faultpoint.New("chunk/link-cas")
	// FpPublishFail makes Publish fail as if the chunk had just frozen,
	// without a real rebalance. A put then discards its value and
	// relocates and retries; a remove does not retry, and leaves its
	// deleted entry for a later operation or rebalance to clear.
	FpPublishFail = faultpoint.New("chunk/publish-fail")
)

// Comparator orders serialized keys (bytes.Compare semantics). A nil
// Comparator means bytes.Compare. Any other function forgoes the sorted
// prefix's on-heap search array (see Chunk.prefix) and pays one arena
// dereference per binary-search probe.
type Comparator func(a, b []byte) int

var bytesComparePC = reflect.ValueOf(bytes.Compare).Pointer()

// bytewise reports whether cmp is bytes.Compare itself — the one order
// KeyPrefix is known to be monotone under. Called once per NewSorted.
func bytewise(cmp Comparator) bool {
	return reflect.ValueOf(cmp).Pointer() == bytesComparePC
}

// DefaultCapacity is the paper's configuration of 4K entries per chunk.
const DefaultCapacity = 4096

// none marks the absence of an entry index (the end of the linked list).
const none = int32(-1)

// Status reports the outcome of chunk update methods.
type Status int

const (
	// OK means the operation succeeded.
	OK Status = iota
	// Exists means an entry with the same key was already linked.
	Exists
	// Full means the entries array is exhausted; caller must rebalance.
	Full
	// Frozen means the chunk is being rebalanced; caller must retry.
	Frozen
)

// entry is one slot of the entries array. keyRef is written once before
// the entry becomes reachable. valRef holds the value handle (0 = ⊥) and
// is the CAS target of Algorithms 2 and 3. next links the ascending
// entries list.
type entry struct {
	keyRef atomic.Uint64
	valRef atomic.Uint64
	next   atomic.Int32
}

// entryBytes is the size of an entry (next padded to the 8-byte stride).
const entryBytes = 24

// Chunk holds a contiguous key range of the map.
type Chunk struct {
	// minKey is the chunk's minimal key, invariant for its lifespan
	// (§3.1). nil acts as -infinity (the head sentinel chunk).
	minKey []byte

	entries []entry
	sorted  int // length of the sorted prefix

	// prefix is the search array of the sorted prefix: prefix[i] is
	// KeyPrefix(lcp, key of entry i), so a search reads this dense
	// on-heap array and dereferences an off-heap key only where two or
	// more prefixes tie. top is its line summary (LineSummary). lcp is a
	// heap copy of the bytes every sorted key starts with. All three are
	// written once by NewSorted and immutable after; prefix and top are
	// nil (and every probe compares full keys) under a comparator other
	// than bytes.Compare, and where every word would be the same.
	prefix []uint64
	top    []uint64
	lcp    []byte

	nextFree atomic.Int32 // next unallocated entry slot
	head     atomic.Int32 // first entry of the ascending list

	next       atomic.Pointer[Chunk] // successor in the chunk list
	replacedBy atomic.Pointer[Chunk] // forwarding after rebalance

	frozen    atomic.Bool
	published atomic.Int32
	live      atomic.Int32 // heuristic count of entries with live values

	// RebalanceMu serializes rebalances of this chunk; the map's
	// rebalancer acquires it in list order to avoid deadlock.
	RebalanceMu sync.Mutex

	alloc *arena.Allocator
	cmp   Comparator
}

// New creates an empty chunk covering keys ≥ minKey.
func New(minKey []byte, capacity int, alloc *arena.Allocator, cmp Comparator) *Chunk {
	if cmp == nil {
		cmp = bytes.Compare
	}
	c := &Chunk{
		minKey:  minKey,
		entries: make([]entry, capacity),
		alloc:   alloc,
		cmp:     cmp,
	}
	c.head.Store(none)
	return c
}

// Pair is a (key reference, value handle) tuple produced by Gather and
// consumed by NewSorted during rebalance.
type Pair struct {
	KeyRef    uint64
	ValHandle uint64
}

// NewSorted creates a chunk whose sorted prefix is pre-filled with pairs
// (which must be in ascending key order — RB3). This is how the
// rebalancer builds replacement chunks: the full prefix is sorted, so it
// can be binary-searched, and the linked-list successor of each prefix
// entry is the ensuing array entry (§4.1). Under bytes.Compare it reads
// every key once to build the prefix search array.
func NewSorted(minKey []byte, capacity int, alloc *arena.Allocator, cmp Comparator, pairs []Pair) *Chunk {
	if len(pairs) > capacity {
		panic("chunk: sorted prefix exceeds capacity")
	}
	c := New(minKey, capacity, alloc, cmp)
	for i, p := range pairs {
		e := &c.entries[i]
		e.keyRef.Store(p.KeyRef)
		e.valRef.Store(p.ValHandle)
		if i+1 < len(pairs) {
			e.next.Store(int32(i + 1))
		} else {
			e.next.Store(none)
		}
	}
	c.sorted = len(pairs)
	c.nextFree.Store(int32(len(pairs)))
	c.live.Store(int32(len(pairs)))
	if len(pairs) > 0 {
		c.head.Store(0)
		if bytewise(c.cmp) {
			c.buildPrefix()
		}
	}
	return c
}

// buildPrefix fills lcp and prefix from the sorted keys (see PrefixLCP).
func (c *Chunk) buildPrefix() {
	lcp, ok := PrefixLCP(c.keyAt(0), c.keyAt(int32(c.sorted-1)))
	if !ok {
		return
	}
	c.lcp = append([]byte(nil), lcp...)
	c.prefix = make([]uint64, c.sorted)
	for i := range c.prefix {
		// Sorted keys all start with lcp, so a key long enough is read
		// without the checks KeyPrefix makes for a search key: this loop
		// is one cache miss per entry, and the fewer instructions between
		// two of them, the more of them overlap.
		if k := c.keyAt(int32(i)); len(k) >= len(lcp)+8 {
			c.prefix[i] = binary.BigEndian.Uint64(k[len(lcp):])
		} else {
			c.prefix[i] = KeyPrefix(lcp, k)
		}
	}
	c.top = LineSummary(c.prefix)
}

// PrefixLCP returns the lcp of a sorted run of keys from first to last,
// and whether KeyPrefix words over it are worth an array. Every key of the
// run lies between first and last, so it starts with whatever those two
// share (B-tree prefix truncation): keys with a long common head still
// differ inside their 8 prefix bytes. If even the first and last words are
// equal, all are, and an array that cannot decide a probe is not built.
func PrefixLCP(first, last []byte) (lcp []byte, useful bool) {
	lcp = first[:commonPrefixLen(first, last)]
	return lcp, KeyPrefix(lcp, first) != KeyPrefix(lcp, last)
}

// commonPrefixLen returns how many leading bytes a and b share.
func commonPrefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// KeyPrefix maps key to the 8 bytes that follow lcp, big-endian and
// zero-padded. A key that does not start with lcp maps to 0 if it sorts
// before lcp and to the maximum otherwise. The map is monotone under
// bytes.Compare — a ≤ b implies KeyPrefix(a) ≤ KeyPrefix(b) — because
// the keys starting with lcp are contiguous in that order and big-endian
// zero-padding preserves it among them. So unequal prefixes order their
// keys, and only equal ones need the keys themselves.
func KeyPrefix(lcp, key []byte) uint64 {
	if !bytes.HasPrefix(key, lcp) {
		if bytes.Compare(key, lcp) < 0 {
			return 0
		}
		return math.MaxUint64
	}
	var word [8]byte
	copy(word[:], key[len(lcp):])
	return binary.BigEndian.Uint64(word[:])
}

// lineWords is how many 8-byte words share one 64-byte cache line.
const lineWords = 8

// LineSummary returns the line summary of an ascending word array: one
// word per 64-byte line of it, top[j] = words[8j]. At 1/8 of the array it
// stays cached where the arrays do not, so a search reads the summary and
// then a single line of words (WordLine, WordRun).
func LineSummary(words []uint64) []uint64 {
	top := make([]uint64, (len(words)+lineWords-1)/lineWords)
	for j := range top {
		top[j] = words[j*lineWords]
	}
	return top
}

// WordLine returns where the first word ≥ kw of an ascending array lies,
// decided on its summary top alone: at an index in [line, line+8], so in
// the 8 words from line or at the first word of the next line.
func WordLine(top []uint64, kw uint64) (line int) {
	if j := lowerBound(top, kw); j > 0 {
		return (j - 1) * lineWords
	}
	return 0
}

// WordRun returns the run [lo, hi) of words equal to kw in the ascending
// words with summary top, line being WordLine(top, kw): words below lo are
// < kw and words from hi on are > kw. Words decide every key outside the
// run; only a run of two or more leaves keys for the caller to compare.
// The run's start is found in the one line of words, and its end — read
// only when two words tie — by binary search on the summary and then one
// line, so a run that straddles line boundaries costs no linear scan.
// The chunk's prefix search and the chunk index share it.
func WordRun(words, top []uint64, kw uint64, line int) (lo, hi int) {
	n := len(words)
	lo = line + lowerBound(words[line:min(line+lineWords, n)], kw)
	switch {
	case lo == n || words[lo] != kw:
		return lo, lo
	case lo+1 == n || words[lo+1] != kw:
		return lo, lo + 1
	}
	// top[j-1] ≤ kw < top[j], and j ≥ 1 because top[lo/8] ≤ words[lo].
	end := (upperBound(top, kw) - 1) * lineWords
	return lo, end + upperBound(words[end:min(end+lineWords, n)], kw)
}

// lowerBound returns the number of words < kw in ascending words.
func lowerBound(words []uint64, kw uint64) int {
	lo, hi := 0, len(words)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if words[mid] < kw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the number of words ≤ kw in ascending words.
func upperBound(words []uint64, kw uint64) int {
	lo, hi := 0, len(words)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if words[mid] <= kw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MinKey returns the chunk's minimal key (nil = -infinity).
func (c *Chunk) MinKey() []byte { return c.minKey }

// Capacity returns the size of the entries array.
func (c *Chunk) Capacity() int { return len(c.entries) }

// SortedCount returns the length of the sorted prefix.
func (c *Chunk) SortedCount() int { return c.sorted }

// Allocated returns the number of allocated entry slots. AllocateEntry
// bumps nextFree past the end on every Full, hence the clamp.
func (c *Chunk) Allocated() int { return min(int(c.nextFree.Load()), len(c.entries)) }

// MetaBytes returns the on-heap bytes the chunk holds besides its fixed
// header: the entries array, the prefix search array and its summary, and
// the lcp and minKey copies.
func (c *Chunk) MetaBytes() int {
	return len(c.entries)*entryBytes + (len(c.prefix)+len(c.top))*8 + len(c.lcp) + len(c.minKey)
}

// Next returns the successor chunk in the list (nil at the end).
func (c *Chunk) Next() *Chunk { return c.next.Load() }

// SetNext stores the successor pointer (used while building chains).
func (c *Chunk) SetNext(n *Chunk) { c.next.Store(n) }

// ReplacedBy returns the chunk's replacement if it was rebalanced away.
func (c *Chunk) ReplacedBy() *Chunk { return c.replacedBy.Load() }

// SetReplacedBy publishes the chunk's replacement; traversals forward
// through it.
func (c *Chunk) SetReplacedBy(n *Chunk) { c.replacedBy.Store(n) }

// Forward follows replacedBy pointers to the live chunk covering the same
// range start.
func Forward(c *Chunk) *Chunk {
	for {
		r := c.replacedBy.Load()
		if r == nil {
			return c
		}
		c = r
	}
}

// keyAt returns the serialized key of entry ei.
func (c *Chunk) keyAt(ei int32) []byte {
	return c.alloc.Bytes(arena.Ref(c.entries[ei].keyRef.Load()))
}

// Key returns the serialized key bytes of entry ei.
func (c *Chunk) Key(ei int32) []byte { return c.keyAt(ei) }

// KeyRef returns the packed key reference of entry ei.
func (c *Chunk) KeyRef(ei int32) uint64 { return c.entries[ei].keyRef.Load() }

// ValHandle returns the value handle of entry ei (0 = ⊥).
func (c *Chunk) ValHandle(ei int32) uint64 { return c.entries[ei].valRef.Load() }

// CASValHandle performs the value-reference CAS of Algorithms 2 and 3.
func (c *Chunk) CASValHandle(ei int32, old, new uint64) bool {
	return c.entries[ei].valRef.CompareAndSwap(old, new)
}

// IncLive / DecLive maintain the heuristic live-entry counter used by
// the rebalance trigger policy (merge when under-used, §4.1). The
// counter is approximate: values deleted but not yet unlinked still
// count until the next rebalance.
func (c *Chunk) IncLive() { c.live.Add(1) }

// DecLive decrements the live-entry counter.
func (c *Chunk) DecLive() { c.live.Add(-1) }

// Live returns the heuristic live-entry count.
func (c *Chunk) Live() int { return int(c.live.Load()) }

// Head returns the first entry of the ascending list, or -1.
func (c *Chunk) Head() int32 { return c.head.Load() }

// NextEntry returns the list successor of ei, or -1.
func (c *Chunk) NextEntry(ei int32) int32 { return c.entries[ei].next.Load() }

// prefixFloor returns the floor of key in the sorted prefix — the largest
// index whose key is < key, or -1 — or the index just before it. Words
// decide it (§4.1): the result is the last index whose prefix word is
// below key's, and the one sorted key whose word may tie key's is left to
// seek's list walk, which compares that successor anyway. Only a run of
// two or more tying words is searched by key. A chunk without a prefix
// array binary-searches keys.
//
// Once the summary has narrowed the search to a line of words, the
// entries the walk starts from — the floor is one of that line's 8
// indexes, its successor at most the next — are prefetched, so their
// misses overlap the one on the line.
func (c *Chunk) prefixFloor(key []byte) int32 {
	lo, hi := 0, c.sorted // keys decide in [lo, hi): below lo are < key, from hi on > key
	if c.prefix != nil {
		kw := KeyPrefix(c.lcp, key)
		line := WordLine(c.top, kw)
		for i := line; i <= min(line+lineWords, c.sorted-1); i += 2 { // 24 B entries: one hint per line
			arena.PrefetchWord(&c.entries[i].keyRef)
		}
		if lo, hi = WordRun(c.prefix, c.top, kw, line); hi-lo < 2 {
			return int32(lo - 1)
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.cmp(c.keyAt(int32(mid)), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo - 1)
}

// start returns where a search for key enters the entries list: the
// sorted-prefix floor pred (see prefixFloor; -1 before the head) and its
// list successor cur, the first entry whose key the walk compares.
func (c *Chunk) start(key []byte) (pred, cur int32) {
	pred = c.prefixFloor(key)
	if pred < 0 {
		return pred, c.head.Load()
	}
	return pred, c.entries[pred].next.Load()
}

// seek locates key in the ascending entries list: a search of the sorted
// prefix, then a walk of the list from there (§4.1). pred is the last
// linked entry with a smaller key (-1 when key sorts before the head), cur
// its successor — the first entry with a key ≥ key, or -1 — and found
// reports whether cur holds key itself. seek proceeds concurrently with
// inserts and rebalances.
func (c *Chunk) seek(key []byte) (pred, cur int32, found bool) {
	pred, cur = c.start(key)
	return c.walk(key, pred, cur)
}

// walk is seek's list walk from pred and its successor cur.
func (c *Chunk) walk(key []byte, pred, cur int32) (int32, int32, bool) {
	for cur != none {
		if cv := c.cmp(c.keyAt(cur), key); cv >= 0 {
			return pred, cur, cv == 0
		}
		pred = cur
		cur = c.entries[cur].next.Load()
	}
	return pred, none, false
}

// LookUp returns the index of the entry holding key, or -1. LookUp
// proceeds concurrently with rebalances.
func (c *Chunk) LookUp(key []byte) int32 { return c.LookUpFrom(key, c.Candidate(key)) }

// Candidate returns the first entry a lookup of key compares — the one
// that holds key if the sorted prefix does — or -1. Finding it reads no
// off-heap key unless two prefix words tie key's, so a caller can start
// fetching what the entry refers to before LookUpFrom compares its key.
func (c *Chunk) Candidate(key []byte) int32 {
	_, cur := c.start(key)
	return cur
}

// LookUpFrom is LookUp continued from Candidate(key).
func (c *Chunk) LookUpFrom(key []byte, cand int32) int32 {
	if _, cur, found := c.walk(key, none, cand); found {
		return cur
	}
	return none
}

// FirstGE returns the first linked entry with key ≥ bound, or -1. A nil
// bound returns the list head. Used by ascending scans.
func (c *Chunk) FirstGE(bound []byte) int32 {
	if bound == nil {
		return c.head.Load()
	}
	_, cur, _ := c.seek(bound)
	return cur
}

// AllocateEntry claims a fresh entry slot referring to keyRef using
// fetch-and-add (§4.1). It returns Full when the array is exhausted and
// Frozen during a rebalance; on OK the entry has ⊥ value and is not yet
// linked.
func (c *Chunk) AllocateEntry(keyRef uint64) (int32, Status) {
	if c.frozen.Load() {
		return none, Frozen
	}
	idx := c.nextFree.Add(1) - 1
	if int(idx) >= len(c.entries) {
		// Leave nextFree past the end; concurrent allocators also fail.
		return none, Full
	}
	e := &c.entries[idx]
	e.next.Store(none)
	e.valRef.Store(0)
	e.keyRef.Store(keyRef)
	return idx, OK
}

// PutIfAbsentInList links an allocated entry into the ascending entries
// list with CAS, preserving the at-most-one-entry-per-key invariant
// (§4.1). If an entry with the same key is already linked, that entry's
// index is returned with status Exists and ei remains unlinked (the
// rebalancer eventually reclaims it). Returns Frozen during a rebalance.
func (c *Chunk) PutIfAbsentInList(ei int32) (int32, Status) {
	key := c.keyAt(ei)
	for {
		if c.frozen.Load() {
			return none, Frozen
		}
		pred, cur, found := c.seek(key)
		if found {
			return cur, Exists
		}
		c.entries[ei].next.Store(cur)
		if FpLinkCAS.Fire() {
			continue // injected lost race: re-scan from the prefix floor
		}
		// The link CAS is published like a value CAS: either Freeze waits
		// for it and Gather sees the entry, or it sees the chunk frozen
		// and links nothing. A link after Gather's walk would strand the
		// entry, and its key, in a chunk that nothing retires.
		c.published.Add(1)
		if c.frozen.Load() {
			c.published.Add(-1)
			return none, Frozen
		}
		var ok bool
		if pred < 0 {
			ok = c.head.CompareAndSwap(cur, ei)
		} else {
			ok = c.entries[pred].next.CompareAndSwap(cur, ei)
		}
		c.published.Add(-1)
		if ok {
			return ei, OK
		}
		// Lost the race; re-scan from the prefix floor.
	}
}

// Publish announces an imminent entry-level update (a valRef CAS) to the
// rebalancer (§4.1). It fails iff the chunk is frozen.
func (c *Chunk) Publish() bool {
	c.published.Add(1)
	if c.frozen.Load() || FpPublishFail.Fire() {
		c.published.Add(-1)
		return false
	}
	return true
}

// Unpublish clears the announcement made by Publish.
func (c *Chunk) Unpublish() {
	c.published.Add(-1)
}

// Freeze marks the chunk as being rebalanced and waits for all published
// updates to drain. After Freeze returns, no valRef can change: every
// update path either published earlier (now drained) or will observe
// frozen and retry on the replacement chunk.
func (c *Chunk) Freeze() {
	c.frozen.Store(true)
	for spins := 0; c.published.Load() != 0; spins++ {
		if spins > 16 {
			runtime.Gosched()
		}
	}
}

// Gather walks the (frozen) entries list and returns the live pairs —
// entries whose value handle is non-⊥ — in ascending key order. The chunk
// cannot read the deleted bit (headers live in the map); the map's
// rebalance drops deleted values itself (core's gather). It also returns
// the key references of dead linked entries (valRef ⊥) so the map can
// recycle their key storage.
func (c *Chunk) Gather() (live []Pair, deadKeys []uint64) {
	live = make([]Pair, 0, c.Allocated())
	for cur := c.head.Load(); cur != none; cur = c.entries[cur].next.Load() {
		e := &c.entries[cur]
		if v := e.valRef.Load(); v != 0 {
			live = append(live, Pair{KeyRef: e.keyRef.Load(), ValHandle: v})
		} else {
			deadKeys = append(deadKeys, e.keyRef.Load())
		}
	}
	return live, deadKeys
}
