package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"oakmap"
)

// SCAN batch sizes without and with the largest COUNT (Redis-compatible).
const (
	scanDefaultCount = 10
	scanMaxCount     = 4096
)

// execScan implements the ordered range scan:
//
//	SCAN cursor [COUNT n] [END hi] [SNAP]
//
// Unlike Redis's hash-bucket SCAN, oak's keyspace is ordered, so the
// cursor walks it in global key order (on a sharded map: merged across
// shards). cursor is "0" to start; every reply carries the cursor for
// the next batch ("0" when the range is exhausted). Cursors are opaque
// to clients: internally they encode "resume strictly after key K", so
// a batch boundary never skips or repeats keys even while writers
// churn. END bounds the scan to keys < hi, which makes SCAN a paged
// range query. Replies are [next-cursor, [key, ...]]; values are
// fetched with MGET (or per-key GET) so a scan moves only the bytes the
// client asked for.
//
// SNAP (valid only with the fresh "0" cursor) pins a server-side
// snapshot for the scan's whole lifetime: every batch reads the same
// frozen view, so the paged result is an atomic picture of the map —
// no entry mutated, inserted or deleted after the first batch ever
// shows up. Because the values are frozen too, SNAP batches return
// flat [key, value, key, value, ...] pairs (a live MGET would read
// newer state). The pinned view is released when the scan exhausts,
// or reaped after Config.SnapScanTTL without a batch; a reply of "0"
// or an "expired" error both mean the snapshot is gone.
func (s *Server) execScan(w *respWriter, args [][]byte) {
	if len(args) < 2 {
		w.writeError("wrong number of arguments for 'scan' command")
		return
	}
	var (
		after  []byte
		snapID uint64
		haveID bool
	)
	switch cur := args[1]; {
	case len(cur) == 1 && cur[0] == '0':
		// fresh scan
	case len(cur) > 1 && cur[0] == 'k':
		after = cur[1:]
	case len(cur) > 1 && cur[0] == 's':
		// "s<id>" (first continuation) or "s<id>k<key>" (resume after key).
		i := 1
		for i < len(cur) && cur[i] >= '0' && cur[i] <= '9' {
			snapID = snapID*10 + uint64(cur[i]-'0')
			i++
		}
		if i == 1 {
			w.writeError("invalid cursor")
			return
		}
		haveID = true
		if i < len(cur) {
			if cur[i] != 'k' {
				w.writeError("invalid cursor")
				return
			}
			after = cur[i+1:]
		}
	default:
		w.writeError("invalid cursor")
		return
	}
	count := scanDefaultCount
	var hi []byte // nil = open; END's argument is a non-nil slice
	wantSnap := false
	for i := 2; i < len(args); {
		switch {
		case eqFold(args[i], "COUNT"):
			if i+1 >= len(args) {
				w.writeError("syntax error")
				return
			}
			n, err := parseLen(args[i+1])
			if err != nil || n <= 0 {
				w.writeError("value is not an integer or out of range")
				return
			}
			if n > scanMaxCount {
				n = scanMaxCount
			}
			count = n
			i += 2
		case eqFold(args[i], "END"):
			if i+1 >= len(args) {
				w.writeError("syntax error")
				return
			}
			hi = args[i+1]
			i += 2
		case eqFold(args[i], "SNAP"):
			wantSnap = true
			i++
		default:
			w.writeError("syntax error")
			return
		}
	}
	if wantSnap {
		if haveID || after != nil {
			w.writeError("SNAP is only valid with cursor 0")
			return
		}
		id, err := s.snaps.create(s.m, s.cfg.SnapScanMax, s.cfg.SnapScanTTL)
		if err != nil {
			w.writeError(err.Error())
			return
		}
		snapID, haveID = id, true
	}
	// One pager serves both kinds of scan; only the row source and the
	// next cursor's prefix differ.
	rows, prefix := s.liveKeys, []byte(nil)
	if haveID {
		sn, ok := s.snaps.acquire(snapID)
		if !ok {
			w.writeError("snapshot cursor expired or unknown")
			return
		}
		rows, prefix = sn.AscendRaw, strconv.AppendUint([]byte{'s'}, snapID, 10)
	}
	exhausted := writeScanPage(w, rows, prefix, after, hi, count, haveID)
	if haveID {
		s.snaps.release(snapID, exhausted)
	}
}

// liveKeys is the live scan's row source: keys only, since a live page
// leaves the values to MGET.
func (s *Server) liveKeys(lo, hi []byte, yield func(key, val []byte) bool) {
	var from, to *[]byte
	if lo != nil {
		from = &lo
	}
	if hi != nil {
		to = &hi
	}
	s.zc.KeysStream(from, to, func(key *oakmap.OakRBuffer) bool {
		more := true // a stream key view reads the scan's own key: Read cannot fail
		// The pager's yield copies the key out before it returns.
		key.Read(func(b []byte) error { more = yield(b, nil); return nil }) //oak:allow zcescape yield copies b
		return more
	})
}

// writeScanPage collects up to count rows after the resume key from
// rows(lo = after, hi) and writes one SCAN reply: the next cursor
// (prefix + "k" + last key, or "0" once the range is exhausted), then the
// keys — each followed by its value when withVals is set. The rows'
// bytes are only valid inside the callback, and the reply's array
// header needs the row count, so each row is RESP-framed once into the
// writer's reused page buffer and the page follows the headers. It
// reports whether the range is exhausted.
func writeScanPage(w *respWriter, rows func(lo, hi []byte, yield func(key, val []byte) bool), prefix, after, hi []byte, count int, withVals bool) bool {
	var (
		page     = w.page[:0]
		n        int
		lastEnd  int // end of the last key's payload in page
		lastLen  int
		firstDup = after != nil // lo is inclusive; the resume key went out last page
	)
	rows(after, hi, func(key, val []byte) bool {
		if firstDup {
			firstDup = false
			if bytes.Equal(key, after) {
				return true
			}
		}
		page = appendBulk(page, key)
		lastEnd, lastLen = len(page)-2, len(key)
		if withVals {
			page = appendBulk(page, val)
		}
		n++
		return n < count
	})
	w.page = page
	exhausted := n < count
	w.writeArrayHeader(2)
	if exhausted {
		w.writeBulkString("0")
	} else {
		last := page[lastEnd-lastLen : lastEnd]
		w.writeBulkHeader(len(prefix) + 1 + len(last))
		w.bw.Write(prefix)
		w.bw.WriteByte('k')
		w.bw.Write(last)
		w.bw.WriteString("\r\n")
	}
	if withVals {
		n *= 2
	}
	w.writeArrayHeader(n)
	w.bw.Write(page)
	return exhausted
}

// snapCursors is the server-side registry of snapshot-pinned scans.
// Each entry holds one open map snapshot; entries are reaped when a
// scan exhausts its range, when no batch arrives within the TTL (a
// background ticker, started lazily by the first SNAP scan, sweeps
// even if no further SNAP command ever arrives), and unconditionally
// at Shutdown — an abandoned client must not pin the map's reclaim
// horizon forever.
//
// Lock-order contract, verified by oak-vet/lockset: the registry lock
// is outermost — create() calls Snapshot() (shard ratchet, MVCC locks)
// while holding mu, so no map-internal path may ever call back into the
// registry.
//
//oak:lock-order server.snapCursors.mu sharded.Map.verMu
//oak:lock-order server.snapCursors.mu core.mvccState.mu
type snapCursors struct {
	mu   sync.Mutex
	next uint64                 //oak:guarded-by mu
	open map[uint64]*snapCursor //oak:guarded-by mu
	stop chan struct{}          //oak:guarded-by mu — non-nil once the reaper ticker is running
}

// snapCursor's mutable fields are guarded by the owning registry's
// snapCursors.mu. sn itself is deliberately unguarded: it is written
// once before the entry is published into open, read only under mu
// while the entry is live, and Close()d only after the entry has been
// removed from open — by the sole goroutine that removed it — so the
// closer owns it exclusively and may call Close outside the lock
// (Close walks the map's MVCC state and must not nest under mu from
// the release path, where a handler is on the hot path).
type snapCursor struct {
	sn   *oakmap.Snapshot[[]byte, []byte]
	used time.Time //oak:guarded-by snapCursors.mu
	busy int       //oak:guarded-by snapCursors.mu — batches currently reading; reaping skips busy entries
	// dead marks an exhausted entry whose snapshot cannot be closed yet:
	// another connection presenting the same cursor may still be
	// mid-scan on it (busy > 0). The last releaser of a dead entry
	// performs the Close; acquire refuses dead entries, so busy never
	// rises again once dead is set and the drain-to-zero close fires
	// exactly once.
	dead bool //oak:guarded-by snapCursors.mu
}

var errTooManySnaps = errors.New("too many open snapshot cursors")

func (r *snapCursors) create(m *oakmap.Map[[]byte, []byte], max int, ttl time.Duration) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reapLocked(ttl)
	if r.open == nil {
		r.open = make(map[uint64]*snapCursor)
	}
	if len(r.open) >= max {
		return 0, errTooManySnaps
	}
	if r.stop == nil && ttl > 0 {
		r.stop = make(chan struct{})
		go r.reapLoop(ttl, r.stop)
	}
	r.next++
	id := r.next
	// Snapshot() stabilizes under the registry lock; acquisition is
	// short (it waits only for undecided batches, never for plain writes
	// or other snapshots).
	r.open[id] = &snapCursor{sn: m.Snapshot(), used: time.Now()}
	return id, nil
}

// acquire pins entry id for one batch (reaping skips it while busy).
func (r *snapCursors) acquire(id uint64) (*oakmap.Snapshot[[]byte, []byte], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.open[id]
	if !ok || e.dead {
		return nil, false
	}
	e.busy++
	return e.sn, true
}

// release ends a batch; done additionally marks the entry dead (the
// scan exhausted its range). The snapshot is closed by whichever
// release drains a dead entry's busy count to zero — never while a
// concurrent batch is still reading the frozen view.
func (r *snapCursors) release(id uint64, done bool) {
	r.mu.Lock()
	e, ok := r.open[id]
	var closeNow bool
	if ok {
		e.busy--
		e.used = time.Now()
		if done {
			e.dead = true
		}
		if e.dead && e.busy == 0 {
			delete(r.open, id)
			closeNow = true
		}
	}
	r.mu.Unlock()
	if closeNow {
		e.sn.Close()
	}
}

// reapLoop sweeps expired entries until stop closes (Shutdown), so TTL
// expiry does not depend on any future SNAP command arriving.
func (r *snapCursors) reapLoop(ttl time.Duration, stop <-chan struct{}) {
	iv := ttl / 4
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.mu.Lock()
			r.reapLocked(ttl)
			r.mu.Unlock()
		case <-stop:
			return
		}
	}
}

func (r *snapCursors) reapLocked(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	cut := time.Now().Add(-ttl)
	for id, e := range r.open {
		if e.busy == 0 && e.used.Before(cut) {
			delete(r.open, id)
			e.sn.Close()
		}
	}
}

// closeAll releases every pinned snapshot and stops the reaper
// (Shutdown path — handlers have already drained, so no entry is busy).
func (r *snapCursors) closeAll() {
	r.mu.Lock()
	entries := make([]*snapCursor, 0, len(r.open))
	for id, e := range r.open {
		entries = append(entries, e)
		delete(r.open, id)
	}
	if r.stop != nil {
		close(r.stop)
		r.stop = nil
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.sn.Close()
	}
}

func (r *snapCursors) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// execInfo renders the INFO text: server totals, then the map rollup
// and the per-shard leak/imbalance signals — the same numbers the
// /metrics endpoint exports, in human-readable form.
func (s *Server) execInfo(w *respWriter) {
	var b bytes.Buffer
	m := &s.metrics
	fmt.Fprintf(&b, "# Server\r\n")
	fmt.Fprintf(&b, "uptime_seconds:%d\r\n", int64(time.Since(s.start).Seconds()))
	fmt.Fprintf(&b, "connected_clients:%d\r\n", m.conns.Load())
	fmt.Fprintf(&b, "total_connections_received:%d\r\n", m.connsTotal.Load())
	fmt.Fprintf(&b, "rejected_connections:%d\r\n", m.rejected.Load())
	fmt.Fprintf(&b, "handler_panics:%d\r\n", m.panics.Load())
	var total int64
	for c := cmdKind(0); c < numCmds; c++ {
		total += m.cmds[c].Load()
	}
	fmt.Fprintf(&b, "total_commands_processed:%d\r\n", total)

	st := s.m.Stats()
	fmt.Fprintf(&b, "# Keyspace\r\n")
	fmt.Fprintf(&b, "keys:%d\r\n", st.Len)
	fmt.Fprintf(&b, "shards:%d\r\n", st.Shards)
	fmt.Fprintf(&b, "offheap_footprint_bytes:%d\r\n", st.Footprint)
	fmt.Fprintf(&b, "offheap_live_bytes:%d\r\n", st.LiveBytes)
	fmt.Fprintf(&b, "chunks:%d\r\n", st.Chunks)
	fmt.Fprintf(&b, "rebalances:%d\r\n", st.Rebalances)
	fmt.Fprintf(&b, "epoch:%d\r\n", st.Epoch)
	fmt.Fprintf(&b, "limbo_bytes:%d\r\n", st.LimboBytes)
	fmt.Fprintf(&b, "# MVCC\r\n")
	fmt.Fprintf(&b, "open_snapshots:%d\r\n", st.OpenSnapshots)
	fmt.Fprintf(&b, "snap_scan_cursors:%d\r\n", s.snaps.count())
	fmt.Fprintf(&b, "retained_bytes:%d\r\n", st.RetainedBytes)
	fmt.Fprintf(&b, "retained_spans:%d\r\n", st.RetainedSpans)
	fmt.Fprintf(&b, "horizon_lag:%d\r\n", st.HorizonLag)
	for i, ss := range s.m.ShardStats() {
		fmt.Fprintf(&b, "shard%d:keys=%d,rebalances=%d\r\n", i, ss.Len, ss.Rebalances)
	}
	w.writeBulk(b.Bytes())
}
