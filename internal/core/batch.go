package core

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"oakmap/internal/arena"
	"oakmap/internal/chunk"
)

// Atomic batch updates. A batch installs a set of Put/Delete operations
// so that readers observe either none of them or all of them:
//
//  1. Prepare: the clock ratchets by 2, giving the batch a base version
//     no normal write ever stamps, and the install record is registered
//     in the pending registry.
//  2. Install: each op is one run of the ordinary insertion or removal
//     algorithm (doPut / doIfPresent) handed the install record instead
//     of a plain version: the value's version word is stamped
//     base|pending (plus tomb for deletes) and the pre-state is
//     recorded. Readers that hit a flagged word resolve through the
//     registry: pre-state while the batch is undecided, post-state once
//     committed. Normal writers wait out flagged values (lockStable), so
//     no write intervenes between install and finalize.
//  3. Commit: one atomic store of the descriptor's state flips every
//     installed op from invisible to visible at once — the batch's
//     linearization point. (On error, Abort + rollback restores the
//     pre-state instead.)
//  4. Settle: flags are cleared value by value (tombstones become real
//     deletes), pre-image spans are retired or retained for snapshots,
//     and the registry entry is dropped.
//
// Deadlock freedom: ops within a batch are installed in key order
// (NormalizeBatch) and, in the sharded map, shards are installed in
// index order — a total order over all values any two batches touch, so
// a cyclic install-wait is impossible.

// Batch descriptor states.
const (
	batchPending uint32 = iota
	batchCommitted
	batchAborted
)

// BatchDesc is a batch's shared decision point. In the sharded map one
// descriptor spans every shard's install record, so all shards flip
// together.
type BatchDesc struct {
	// The decision must be readable the instant a waiter wakes:
	// Commit/Abort store state before closing done, and lockset
	// holds them to it — a close-first order would wake DecideWait
	// callers to a still-pending state word.
	state atomic.Uint32 //oak:publish-before done
	done  chan struct{} // closed when state leaves pending
}

// NewBatchDesc creates a pending batch descriptor.
func NewBatchDesc() *BatchDesc {
	return &BatchDesc{done: make(chan struct{})}
}

// Commit flips the batch visible: the linearization point of the whole
// batch. Exactly one of Commit/Abort may be called, once.
func (d *BatchDesc) Commit() {
	d.state.Store(batchCommitted)
	close(d.done)
}

// Abort marks the batch rolled back. Exactly one of Commit/Abort may be
// called, once.
func (d *BatchDesc) Abort() {
	d.state.Store(batchAborted)
	close(d.done)
}

// batchRec is one installed op's pre-state, kept for reader resolution
// (pre-commit reads see the old value) and finalize/rollback. A put that
// inserted a fresh entry has neither del nor hadOld set.
type batchRec struct {
	key    []byte // owned copy
	h      ValueHandle
	del    bool      // tombstone (batch delete)
	hadOld bool      // a committed value existed before the install
	oldRef arena.Ref // pre-image span (puts only; tombs leave data in place)
	oldVer uint64    // pre-image's committed version
}

// BatchInstall is one map's (or shard's) install record for a batch.
// Installs are driven by a single goroutine; the internal lock only
// guards concurrent reader lookups against record appends.
type BatchInstall struct {
	m    *Map
	desc *BatchDesc
	base uint64

	mu   sync.RWMutex
	recs []batchRec          //oak:guarded-by mu
	byH  map[ValueHandle]int //oak:guarded-by mu
}

// lookup returns the install record for handle h, nil if the batch did
// not touch it — or inserted it fresh: readers treat a flagged handle
// without a record as absent before the batch.
func (bi *BatchInstall) lookup(h ValueHandle) *batchRec {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	if i, ok := bi.byH[h]; ok {
		// Taking the address is not a mutation: records are immutable
		// once added, and append never moves a record out from under an
		// extant pointer (the old backing array stays put).
		return &bi.recs[i] //oak:allow lockset address-of under RLock, record immutable after add
	}
	return nil
}

func (bi *BatchInstall) add(r batchRec) {
	bi.mu.Lock()
	bi.byH[r.h] = len(bi.recs)
	bi.recs = append(bi.recs, r)
	bi.mu.Unlock()
}

// stampTomb installs a batch delete on h, whose write lock the caller
// holds (and this releases): the data stays in place as the pre-image.
func (bi *BatchInstall) stampTomb(key []byte, h ValueHandle, oldVer uint64) {
	hd := bi.m.headers
	bi.add(batchRec{key: append([]byte(nil), key...), h: h, del: true, hadOld: true, oldVer: oldVer})
	hd.StoreVersion(uint64(h), bi.base|verPendingBit|verTombBit)
	hd.WriteUnlock(uint64(h))
}

// PrepareBatch allocates a base version for a batch on this map and
// registers its install record. The clock ratchets by 2 so the base is
// never stamped by a normal write — flagged version words therefore
// identify their batch uniquely. desc may be shared across shards.
//
// The clock ratchet and the registry insert happen under one pendMu
// critical section: StabilizeSnapshot scans the registry under pendMu,
// so a snapshot whose version exceeds this base (its BeginSnapshot ran
// after the ratchet here) cannot complete its pending scan until the
// batch is registered — it always finds the batch and waits out its
// decision. Without that atomicity a snapshot could stabilize in the gap
// and watch the batch commit inside its "frozen" view. (Across shards,
// sharded.Map's verMu extends the guarantee to the whole vector.)
func (m *Map) PrepareBatch(desc *BatchDesc) *BatchInstall {
	bi := &BatchInstall{
		m:    m,
		desc: desc,
		byH:  make(map[ValueHandle]int),
	}
	st := &m.mvcc
	st.pendMu.Lock()
	bi.base = st.clock.Add(2) - 1
	st.pending[bi.base] = bi
	st.pendMu.Unlock()
	return bi
}

// settle ends the batch on this map after its descriptor was decided:
// committed installs get their final stamp (tombstones become real
// deletes), aborted ones are rolled back. The registry entry is dropped
// only after every flag is cleared, so a reader holding a flagged
// version word can always resolve it. Called once, by the installer.
func (bi *BatchInstall) settle(committed bool) {
	m := bi.m
	// Install is over: the single installing goroutine owns recs, and
	// bi.mu only guards reader lookups against appends (none remain).
	for i := range bi.recs { //oak:allow lockset installer-private after install phase
		rec := &bi.recs[i]
		switch {
		case committed && rec.del:
			m.removeOwn(rec, rec.key, bi.base)
		case !committed && !rec.hadOld:
			m.removeOwn(rec, nil, 0) // a fresh insert nobody was allowed to see
		default:
			m.restamp(rec, committed, bi.base)
		}
	}
	st := &m.mvcc
	st.pendMu.Lock()
	delete(st.pending, bi.base)
	st.pendMu.Unlock()
}

// restamp clears rec's flags in place. A committed put keeps its new
// span, stamped base, and hands the pre-image to retireOrRetain; an
// aborted put or tombstone gets its pre-image and old version back. The
// write lock waits out readers still resolving the flagged word through
// rec; normal writers cannot intervene (they wait for the flags to
// clear), and the batch's own stamp rules out lockStable.
func (m *Map) restamp(rec *batchRec, committed bool, base uint64) {
	h := uint64(rec.h)
	if !m.headers.TryWriteLock(h) {
		return // deleted: cannot happen while the flags hold writers off
	}
	switch {
	case committed:
		// Retain before publish: the pre-image is findable before the
		// flag-free version makes snapshots stop resolving through rec.
		m.retireOrRetain(rec.key, rec.oldRef, rec.oldVer, base)
		m.headers.StoreVersion(h, base)
	case rec.del:
		m.headers.StoreVersion(h, rec.oldVer) // the value was never touched
	default:
		m.retire(arena.Ref(m.headers.LoadData(h))) // the never-visible new span
		m.headers.StoreData(h, uint64(rec.oldRef))
		m.headers.StoreVersion(h, rec.oldVer)
	}
	m.headers.WriteUnlock(h)
}

// removeOwn deletes a value carrying the batch's own stamp and clears
// its entry: a committed tombstone (retKey is the key, deleted at
// version super) or an aborted fresh insert (retKey nil).
func (m *Map) removeOwn(rec *batchRec, retKey []byte, super uint64) {
	c := func() *chunk.Chunk {
		g := m.reclaim.Pin()
		defer g.Unpin()
		c := m.locateChunk(rec.key)
		if m.headers.TryWriteLock(uint64(rec.h)) {
			m.killValue(retKey, rec.h, c, rec.oldVer, super)
		}
		if ei := c.LookUp(rec.key); ei >= 0 {
			m.unlinkDeleted(c, ei, rec.h, rec.key)
		}
		return c
	}()
	m.maybeMerge(c)
}

// BatchOp is one operation in an atomic batch.
type BatchOp struct {
	Key []byte
	Val []byte // ignored when Delete is set
	// Delete removes Key; deleting an absent key is a no-op.
	Delete bool
}

// NormalizeBatch dedupes ops by key (last one wins) and sorts them in key
// order — the install order that makes concurrent batches deadlock-free.
// The returned slice is freshly allocated; ops is not modified.
func NormalizeBatch(ops []BatchOp) []BatchOp {
	last := make(map[string]int, len(ops))
	for i := range ops {
		last[string(ops[i].Key)] = i
	}
	out := make([]BatchOp, 0, len(last))
	for i := range ops {
		if last[string(ops[i].Key)] == i {
			out = append(out, ops[i])
		}
	}
	slices.SortFunc(out, func(a, b BatchOp) int { return bytes.Compare(a.Key, b.Key) })
	return out
}

// RunBatch drives prepared installs to their decision: parts[i], already
// normalized, is installed into bis[i] (nil entries are skipped) in
// index order — each op one Algorithm 2 or 3 run stamped by its install
// record — then desc commits, the batch's linearization point across
// every map involved, and each install is settled. On error nothing is
// applied: desc aborts and the installs roll back.
func RunBatch(desc *BatchDesc, bis []*BatchInstall, parts [][]BatchOp) error {
	var err error
install:
	for i, bi := range bis {
		for _, op := range parts[i] {
			if op.Delete {
				_, err = bi.m.doIfPresent(op.Key, nil, nil, opRemove, bi)
			} else {
				_, err = bi.m.doPut(op.Key, BytesValue(op.Val), nil, opPut, bi)
			}
			if err != nil {
				break install
			}
		}
	}
	if err != nil {
		desc.Abort()
	} else {
		desc.Commit()
	}
	for _, bi := range bis {
		if bi != nil {
			bi.settle(err == nil)
		}
	}
	return err
}

// ApplyBatch applies ops as one atomic batch on this map: readers (and
// snapshots) observe all of them or none. Duplicate keys collapse to
// the last op. On error nothing is applied.
func (m *Map) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	desc := NewBatchDesc()
	return RunBatch(desc, []*BatchInstall{m.PrepareBatch(desc)}, [][]BatchOp{NormalizeBatch(ops)})
}
