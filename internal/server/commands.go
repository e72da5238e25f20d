package server

import (
	"fmt"

	"oakmap"
)

// lookupCmd resolves a verb case-insensitively without allocating: the
// verb set is small enough that an unrolled ASCII-upper comparison
// beats a map[string] lookup plus the []byte→string conversion.
func lookupCmd(verb []byte) cmdKind {
	switch len(verb) {
	case 3:
		if eqFold(verb, "GET") {
			return cmdGet
		}
		if eqFold(verb, "SET") {
			return cmdSet
		}
		if eqFold(verb, "DEL") {
			return cmdDel
		}
	case 4:
		switch {
		case eqFold(verb, "MGET"):
			return cmdMGet
		case eqFold(verb, "MSET"):
			return cmdMSet
		case eqFold(verb, "SCAN"):
			return cmdScan
		case eqFold(verb, "PING"):
			return cmdPing
		case eqFold(verb, "INFO"):
			return cmdInfo
		case eqFold(verb, "QUIT"):
			return cmdOther // handled specially in execute
		}
	case 5:
		if eqFold(verb, "SETNX") {
			return cmdSetNX
		}
	case 6:
		switch {
		case eqFold(verb, "EXISTS"):
			return cmdExists
		case eqFold(verb, "DBSIZE"):
			return cmdDBSize
		}
	case 8:
		if eqFold(verb, "SHUTDOWN") {
			return cmdShutdown
		}
	}
	return cmdOther
}

// eqFold compares a received verb against an upper-case ASCII pattern.
func eqFold(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// execute runs one command and buffers its reply. It returns a non-nil
// error only when the connection should close after the buffered reply
// is flushed (QUIT, SHUTDOWN); command failures are RESP error replies,
// not Go errors — a pipelined batch keeps executing past them.
func (s *Server) execute(w *respWriter, args [][]byte) error {
	FpHandle.Fire()
	verb := args[0]
	if eqFold(verb, "QUIT") {
		w.writeSimple("OK")
		return errCloseConn
	}
	kind := lookupCmd(verb)
	start := s.metrics.observe(kind)
	defer s.metrics.done(kind, start)
	defer w.trim()

	switch kind {
	case cmdGet:
		if !s.arity(w, args, 2, 2) {
			return nil
		}
		s.writeValue(w, args[1])

	case cmdSet:
		if !s.arity(w, args, 3, 3) {
			return nil
		}
		if err := s.zc.Put(args[1], args[2]); err != nil {
			w.writeError(err.Error())
			return nil
		}
		w.writeSimple("OK")

	case cmdSetNX:
		if !s.arity(w, args, 3, 3) {
			return nil
		}
		ins, err := s.zc.PutIfAbsent(args[1], args[2])
		if err != nil {
			w.writeError(err.Error())
			return nil
		}
		w.writeInt(boolInt(ins))

	case cmdDel:
		if !s.arity(w, args, 2, -1) {
			return nil
		}
		var n int64
		for _, k := range args[1:] {
			removed, err := s.zc.Delete(k)
			if err != nil {
				w.writeError(err.Error())
				return nil
			}
			n += boolInt(removed)
		}
		w.writeInt(n)

	case cmdExists:
		if !s.arity(w, args, 2, -1) {
			return nil
		}
		var n int64
		for _, k := range args[1:] {
			n += boolInt(s.m.ContainsKey(k))
		}
		w.writeInt(n)

	case cmdMGet:
		if !s.arity(w, args, 2, -1) {
			return nil
		}
		w.writeArrayHeader(len(args) - 1)
		for _, k := range args[1:] {
			s.writeValue(w, k)
		}

	case cmdMSet:
		if len(args) < 3 || len(args)%2 != 1 {
			w.writeError("wrong number of arguments for 'mset' command")
			return nil
		}
		// Atomic, unlike Redis: the whole batch becomes visible at once.
		// A concurrent reader, scan or snapshot observes either all of
		// these writes or none — across shards too — and an allocation
		// failure rolls the entire batch back (no partial MSET).
		ops := make([]oakmap.Op[[]byte, []byte], 0, (len(args)-1)/2)
		for i := 1; i < len(args); i += 2 {
			ops = append(ops, oakmap.Op[[]byte, []byte]{Key: args[i], Value: args[i+1]})
		}
		if err := s.m.ApplyBatch(ops); err != nil {
			w.writeError(err.Error())
			return nil
		}
		w.writeSimple("OK")

	case cmdScan:
		s.execScan(w, args)

	case cmdDBSize:
		if !s.arity(w, args, 1, 1) {
			return nil
		}
		w.writeInt(int64(s.m.Len()))

	case cmdPing:
		if !s.arity(w, args, 1, 2) {
			return nil
		}
		if len(args) == 2 {
			w.writeBulk(args[1])
		} else {
			w.writeSimple("PONG")
		}

	case cmdInfo:
		s.execInfo(w)

	case cmdShutdown:
		// Acknowledge, request the drain, and close this connection; the
		// embedding process owns the actual Shutdown sequence (so the
		// command and SIGTERM share one code path).
		w.writeSimple("OK")
		s.shutdownOnce.Do(func() { close(s.shutdownCh) })
		return errCloseConn

	default:
		if eqFold(verb, "COMMAND") {
			// redis-cli sends COMMAND DOCS on connect; an empty array
			// keeps it quiet without implementing introspection.
			w.writeArrayHeader(0)
			return nil
		}
		w.writeError(fmt.Sprintf("unknown command '%.32s'", verb))
	}
	return nil
}

// writeValue buffers the value mapped to k as a bulk reply (nil bulk
// when absent, or deleted between lookup and read). The value is copied
// once, off-heap → the writer's free space, under the value's read lock;
// no view is made. A value larger than that free space is copied to the
// reused scratch buffer instead and written after the lock is released:
// writing it in place would flush, and no socket I/O may happen while a
// value's writers wait.
func (s *Server) writeValue(w *respWriter, k []byte) {
	spilled := false
	found, _ := s.zc.Read(k, func(v []byte) error {
		if len(v)+bulkOverhead > w.bw.Available() {
			w.scratch = append(w.scratch[:0], v...)
			spilled = true
			return nil
		}
		w.bw.Write(appendBulk(w.bw.AvailableBuffer(), v)) // fits: no flush
		return nil
	})
	switch {
	case !found:
		w.writeNil()
	case spilled:
		w.writeBulk(w.scratch)
	}
}

// arity checks len(args) against [min, max] (max < 0 = unbounded) and
// reports the Redis-style arity error itself.
func (s *Server) arity(w *respWriter, args [][]byte, min, max int) bool {
	if len(args) < min || (max > 0 && len(args) > max) {
		w.writeError(fmt.Sprintf("wrong number of arguments for '%.32s' command", args[0]))
		return false
	}
	return true
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
