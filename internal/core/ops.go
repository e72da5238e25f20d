package core

import (
	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/faultpoint"
	"oakmap/internal/telemetry"
)

// FpPutRace is hit after doPut observes a live value and before it acts
// on it (no-op unless a test arms it): a pausing hook holds the put in
// the window where a concurrent remove can set the deleted bit, forcing
// the "value was deleted concurrently: retry" path of Algorithm 2.
var FpPutRace = faultpoint.New("core/put-race")

// FpInstallPublishLost and FpInstallCASLost force putAttempt's lost-race
// exit — a freshly allocated, write-locked value that never reaches its
// entry and must be discarded — as if the chunk had frozen before
// Publish, or a concurrent operation had won the entry CAS.
var (
	FpInstallPublishLost = faultpoint.New("core/install-publish-lost")
	FpInstallCASLost     = faultpoint.New("core/install-cas-lost")
)

// Get implements Algorithm 1: locate the chunk, look the key up, and
// return the value's handle if a non-deleted value is present. The
// caller turns the handle into a read-only view (OakRBuffer). The
// lookup runs under an epoch pin: the binary search and list walk
// dereference off-heap key bytes that a concurrent rebalance may have
// retired.
func (m *Map) Get(key []byte) (ValueHandle, bool) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	tk := g.Op(m.tel, telemetry.OpGet)
	defer tk.Done()
	return m.getPinned(key)
}

// getPinned is Get's body for internal callers that already hold an
// epoch pin (Floor), so each public entry point pins exactly once.
//
// Like every read that reports a key without locking its value
// (PutIfAbsent's refusal, live scans), it probes with IsLive, which waits
// out a fresh insert between its entry CAS and its stamp: a probe that
// reported the key before the stamp could be followed by a snapshot that
// ratchets below the stamp and misses the key.
//
// The candidate entry's value is hinted into the cache before its key is
// compared, so the header and value misses overlap the key's instead of
// following it. Writes do not hint: their value is replaced, not read.
func (m *Map) getPinned(key []byte) (ValueHandle, bool) {
	c := m.locateChunk(key)
	ei := c.Candidate(key)
	if ei >= 0 {
		if h := ValueHandle(c.ValHandle(ei)); h != 0 {
			m.prefetchValue(h)
		}
	}
	if ei = c.LookUpFrom(key, ei); ei < 0 {
		return 0, false
	}
	h := ValueHandle(c.ValHandle(ei))
	if h == 0 || !m.headers.IsLive(uint64(h)) {
		return 0, false
	}
	// MVCC slow path: a batch-flagged version word means presence is
	// decided by the owning batch's state (pre-state before commit,
	// post-state after), keeping ApplyBatch all-or-nothing for readers.
	if v := m.headers.LoadVersion(uint64(h)); v&verFlagMask != 0 {
		if _, _, ok := m.visible(h, v, liveView); !ok {
			return 0, false
		}
	}
	return h, true
}

// opKind distinguishes the three insertion operations sharing doPut
// (Algorithm 2).
type opKind int

const (
	opPut opKind = iota
	opPutIfAbsent
	opPutIfAbsentComputeIfPresent
)

// Put maps key to val unconditionally (ZC put: no old value returned).
func (m *Map) Put(key, val []byte) error {
	_, err := m.doPut(key, BytesValue(val), nil, opPut, nil)
	return err
}

// PutWriter is Put with the value serialized directly into off-heap
// memory by vw (§2.1).
func (m *Map) PutWriter(key []byte, vw ValueWriter) error {
	_, err := m.doPut(key, vw, nil, opPut, nil)
	return err
}

// PutIfAbsent maps key to val iff key is absent; reports whether it did.
func (m *Map) PutIfAbsent(key, val []byte) (bool, error) {
	return m.doPut(key, BytesValue(val), nil, opPutIfAbsent, nil)
}

// PutIfAbsentWriter is PutIfAbsent with direct off-heap serialization.
func (m *Map) PutIfAbsentWriter(key []byte, vw ValueWriter) (bool, error) {
	return m.doPut(key, vw, nil, opPutIfAbsent, nil)
}

// PutIfAbsentComputeIfPresent inserts val if key is absent, otherwise
// atomically applies f to the present value in place (§2.2). The lambda
// runs exactly once per successful application.
func (m *Map) PutIfAbsentComputeIfPresent(key, val []byte, f func(*WBuffer) error) error {
	_, err := m.doPut(key, BytesValue(val), f, opPutIfAbsentComputeIfPresent, nil)
	return err
}

// PutIfAbsentComputeIfPresentWriter is PutIfAbsentComputeIfPresent with
// direct off-heap serialization of the initial value.
func (m *Map) PutIfAbsentComputeIfPresentWriter(key []byte, vw ValueWriter, f func(*WBuffer) error) error {
	_, err := m.doPut(key, vw, f, opPutIfAbsentComputeIfPresent, nil)
	return err
}

// doPut is Algorithm 2. It returns true when the operation took effect
// as an insertion or in-place update; PutIfAbsent returns false when the
// key was already present.
//
// bi selects the version stamp. nil is a plain write, stamped with the
// clock's current value. A batch install stamps bi.base|pending instead,
// records the pre-state in bi and never overwrites in place, so readers
// resolve the value through the batch descriptor until it settles; the
// chunk walk, entry linking, publish and CAS are the same either way.
func (m *Map) doPut(key []byte, vw ValueWriter, f func(*WBuffer) error, op opKind, bi *BatchInstall) (bool, error) {
	if m.closed.Load() {
		return false, ErrClosed
	}
	var keyRef uint64 // allocated at most once across retries
	// If the key allocation ends up unused on any exit path (the entry
	// linking raced with another insert of the same key, or an error
	// occurred), reclaim it: a never-linked key has no readers.
	defer func() { m.releaseKeyRef(&keyRef) }()
	var tk telemetry.Tick
	defer tk.Done()
	first := &tk // the first attempt starts the measurement under its pin
	for attempt := 0; ; attempt++ {
		retryPause(attempt)
		out, err := m.putAttempt(key, vw, f, op, bi, &keyRef, first)
		first = nil
		if err != nil {
			return false, err
		}
		// Rebalances run outside the attempt's epoch pin: they retire
		// keys in bulk, and a pinned caller would hold its own garbage.
		if out.full != nil {
			m.rebalance(out.full)
		}
		if out.done {
			if out.grew != nil {
				m.maybeRebalance(out.grew)
			}
			return out.ok, nil
		}
	}
}

// putOutcome carries one doPut attempt's result out of its epoch pin.
type putOutcome struct {
	done bool         // terminal: return ok to the caller
	ok   bool         // the operation took effect
	full *chunk.Chunk // chunk that must be rebalanced before retrying
	grew *chunk.Chunk // on success: chunk to test with maybeRebalance
}

// putAttempt runs one iteration of Algorithm 2 under an epoch pin. The
// pin covers every off-heap key dereference (chunk location, lookup,
// and list linking) so a concurrent rebalance cannot recycle key space
// mid-walk. Anything that triggers a rebalance is reported via the
// outcome and executed by the unpinned caller. A non-nil tk receives the
// operation's telemetry tick, drawn from this attempt's pin.
func (m *Map) putAttempt(key []byte, vw ValueWriter, f func(*WBuffer) error, op opKind, bi *BatchInstall, keyRef *uint64, tk *telemetry.Tick) (putOutcome, error) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	if tk != nil {
		top := telemetry.OpPut
		if op == opPutIfAbsentComputeIfPresent {
			top = telemetry.OpCompute
		}
		*tk = g.Op(m.tel, top)
	}
	c := m.locateChunk(key)
	ei := c.LookUp(key)
	var h ValueHandle
	if ei >= 0 {
		h = ValueHandle(c.ValHandle(ei))
	}

	if h != 0 && m.headers.IsLive(uint64(h)) {
		// Case 1: the key is present (lines 19–26).
		FpPutRace.Fire()
		var ok bool
		var err error
		switch op {
		case opPutIfAbsent:
			return putOutcome{done: true, ok: false}, nil
		case opPut:
			ok, err = m.valuePut(key, h, vw, bi)
		case opPutIfAbsentComputeIfPresent:
			ok, err = m.valueCompute(key, h, f)
		}
		// !ok: the value was deleted concurrently: retry (line 25).
		return putOutcome{done: ok, ok: ok}, err
	}

	// Case 2: the key is absent (h = ⊥ or deleted). A removed entry
	// with the same key is reused (§4.3).
	if ei < 0 {
		if *keyRef == 0 {
			ref, err := m.alloc.Write(key)
			if err != nil {
				return putOutcome{}, err
			}
			*keyRef = uint64(ref)
		}
		nei, st := c.AllocateEntry(*keyRef)
		if st == chunk.Full {
			return putOutcome{full: c}, nil
		}
		if st != chunk.OK {
			return putOutcome{}, nil // frozen: retry on the replacement chunk
		}
		lei, st := c.PutIfAbsentInList(nei)
		if st == chunk.Frozen {
			return putOutcome{}, nil
		}
		ei = lei
		if st == chunk.OK {
			*keyRef = 0 // consumed by the linked entry
		}
		// On Exists, ei is the previously linked entry; our
		// allocated entry stays unlinked and the key allocation is
		// kept for a possible retry (freed on return below).
		h = ValueHandle(c.ValHandle(ei))
		if h != 0 && m.headers.IsLive(uint64(h)) {
			// The racing insert beat us; loop back into case 1.
			return putOutcome{}, nil
		}
	}

	// Like every other write, a fresh value is stamped under its write
	// lock: it is published locked and stamped once its entry CAS has won.
	// A snapshot reader that meets it waits for the stamp, which is ≤ S
	// only if the CAS came before S's ratchet, so no reader of S saw the
	// key absent. A presence probe waits for the stamp too (IsLive), so
	// a snapshot opened after a probe that saw the key ratchets above the
	// insert's stamp. A batch install's flagged stamp and its record land
	// under the same lock, so no reader meets one without the other.
	newH, err := m.allocValue(vw)
	if err != nil {
		return putOutcome{}, err
	}
	won := false
	if !FpInstallPublishLost.Fire() && c.Publish() {
		won = !FpInstallCASLost.Fire() && c.CASValHandle(ei, uint64(h), uint64(newH))
		c.Unpublish()
	}
	if !won {
		// The chunk froze, or a concurrent operation changed the value
		// reference and we cannot linearize before it (§4.3): drop the
		// never-published value and retry.
		m.killValue(nil, newH, nil, 0, 0)
		m.retireHeader(newH)
		return putOutcome{}, nil
	}
	if h != 0 {
		m.retireHeader(h) // the entry's deleted value: this CAS unlinked it
	}
	FpHeaderLock.Fire()
	stamp := m.mvcc.clock.Load()
	if bi != nil {
		stamp = bi.base | verPendingBit
		bi.add(batchRec{key: append([]byte(nil), key...), h: newH})
	}
	m.headers.StoreVersion(uint64(newH), stamp)
	m.headers.WriteUnlock(uint64(newH))
	m.size.Add(1)
	c.IncLive()
	return putOutcome{done: true, ok: true, grew: c}, nil
}

// releaseKeyRef frees a key allocation that ended up unused (the entry
// linking raced with another insert of the same key).
func (m *Map) releaseKeyRef(keyRef *uint64) {
	if *keyRef != 0 {
		// The entry that holds this keyRef is allocated but was never
		// linked, so no reader can reference the key: freeing is safe.
		m.freeKey(*keyRef)
		*keyRef = 0
	}
}

// ComputeIfPresent atomically applies f to the value mapped to key, in
// place. Returns false if the key is absent (Algorithm 3).
func (m *Map) ComputeIfPresent(key []byte, f func(*WBuffer) error) (bool, error) {
	return m.doIfPresent(key, f, nil, opCompute, nil)
}

// Remove deletes the mapping for key, reporting whether a mapping was
// removed (ZC remove: the old value is not returned).
func (m *Map) Remove(key []byte) (bool, error) {
	return m.RemoveWith(key, nil)
}

// RemoveWith is Remove that also hands the removed value's bytes to read
// (when non-nil), under the value's write lock, just before the deleted
// bit is set: the bytes read are exactly the value this remove took out
// of the map, so an API that returns the old value needs no second
// operation. read must not retain the slice, call into the map or panic.
func (m *Map) RemoveWith(key []byte, read func([]byte)) (bool, error) {
	return m.doIfPresent(key, nil, read, opRemove, nil)
}

type nonInsertOp int

const (
	opCompute nonInsertOp = iota
	opRemove
)

// doIfPresent is Algorithm 3: f is a compute's update lambda, read a
// remove's look at the removed bytes. With bi set (removes only) the
// value is not deleted but stamped bi.base|pending|tomb — a batch
// delete, turned into a real one when the batch settles.
func (m *Map) doIfPresent(key []byte, f func(*WBuffer) error, read func([]byte), op nonInsertOp, bi *BatchInstall) (bool, error) {
	if m.closed.Load() {
		return false, ErrClosed
	}
	var tk telemetry.Tick
	defer tk.Done()
	first := &tk // the first attempt starts the measurement under its pin
	for attempt := 0; ; attempt++ {
		retryPause(attempt)
		out, err := m.ifPresentAttempt(key, f, read, op, bi, first)
		first = nil
		if err != nil {
			return false, err
		}
		if out.removedFrom != nil {
			m.maybeMerge(out.removedFrom)
		}
		if out.done {
			return out.ok, nil
		}
	}
}

// ifPresentOutcome carries one doIfPresent attempt's result out of its
// epoch pin.
type ifPresentOutcome struct {
	done        bool
	ok          bool
	removedFrom *chunk.Chunk // a remove linearized in this chunk
}

// ifPresentAttempt runs one iteration of Algorithm 3 under an epoch
// pin (same rationale as putAttempt). A successful remove clears its
// entry under this pin and leaves maybeMerge to the unpinned caller. A
// non-nil tk receives the operation's telemetry tick, drawn from this
// attempt's pin.
func (m *Map) ifPresentAttempt(key []byte, f func(*WBuffer) error, read func([]byte), op nonInsertOp, bi *BatchInstall, tk *telemetry.Tick) (ifPresentOutcome, error) {
	g := m.reclaim.Pin()
	defer g.Unpin()
	if tk != nil {
		top := telemetry.OpRemove
		if op == opCompute {
			top = telemetry.OpCompute
		}
		*tk = g.Op(m.tel, top)
	}
	c := m.locateChunk(key)
	ei := c.LookUp(key)
	if ei < 0 {
		return ifPresentOutcome{done: true}, nil // key not found (line 44)
	}
	h := ValueHandle(c.ValHandle(ei))
	if h == 0 {
		return ifPresentOutcome{done: true}, nil // ⊥ value reference (line 44)
	}
	if !m.IsDeleted(h) {
		// Case 1: value exists and is not deleted.
		if op == opCompute {
			ok, err := m.valueCompute(key, h, f)
			if err != nil {
				return ifPresentOutcome{}, err
			}
			if ok {
				return ifPresentOutcome{done: true, ok: true}, nil // l.p.: successful v.compute (line 46)
			}
		} else if oldVer, ok := m.lockStable(h); ok {
			if bi != nil {
				bi.stampTomb(key, h, oldVer)
				return ifPresentOutcome{done: true, ok: true}, nil
			}
			if read != nil {
				read(m.alloc.Bytes(arena.Ref(m.headers.LoadData(uint64(h)))))
			}
			// l.p.: v.remove sets the deleted bit (line 48).
			m.killValue(key, h, c, oldVer, m.mvcc.clock.Load())
			m.unlinkDeleted(c, ei, h, key)
			return ifPresentOutcome{done: true, ok: true, removedFrom: c}, nil
		}
	}
	// Case 2: the value is deleted, so the key is absent (lines 50–55).
	m.unlinkDeleted(c, ei, h, key)
	return ifPresentOutcome{done: true}, nil
}

// unlinkDeleted clears entry ei of c from the deleted handle h to ⊥, the
// last step of the paper's remove (Algorithm 3, §4.4). It only lets later
// operations and the rebalancer skip the deleted value, so it is tried
// once, under the caller's pin, and never retried. It does nothing while
// an open snapshot still needs the key linked (keepDeleted) or when c is
// frozen. Then c's rebalance drops the entry, or, if it gathered the
// entry before the delete, leaves the deleted handle in the replacement
// chunk: every reader skips it, and the key's next operation or that
// chunk's next rebalance clears it. The winning CAS removes h's last
// entry reference, so it retires h's header. A lost CAS means a put
// already reused the entry (and retired h); h's slot cannot be recycled
// while the caller is pinned, so h cannot come back (no ABA).
func (m *Map) unlinkDeleted(c *chunk.Chunk, ei int32, h ValueHandle, key []byte) {
	if m.keepDeleted(key) || !c.Publish() {
		return
	}
	if c.CASValHandle(ei, uint64(h), 0) {
		m.retireHeader(h)
	}
	c.Unpublish()
}
