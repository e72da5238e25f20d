// Package a exercises pinbalance's snapshot row: discarded, leaked, and
// non-deferred snapshot closes, next to the deferred and
// ownership-transfer forms the codebase actually uses.
package a

import "oakmap"

type registry struct {
	sn *oakmap.Snapshot[uint64, uint64]
}

var global *oakmap.Snapshot[uint64, uint64]

func cond() bool { return true }

func work() {}

func consume(sn *oakmap.Snapshot[uint64, uint64]) {}

// --- Safe forms: no diagnostics. ---

func deferredOK(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot()
	defer sn.Close()
	work()
	if cond() {
		return // early return is fine: the defer closes
	}
	sn.Get(1)
}

func deferredClosureOK(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot()
	defer func() {
		sn.Close()
	}()
	sn.Get(1)
}

// returnOK hands the snapshot to the caller: ownership transfers with
// the return value.
func returnOK(m *oakmap.Map[uint64, uint64]) *oakmap.Snapshot[uint64, uint64] {
	sn := m.Snapshot()
	return sn
}

// storeOK parks the snapshot in a registry (the server's
// snapshot-cursor table idiom): the registry owns the Close now.
func storeOK(m *oakmap.Map[uint64, uint64], r *registry) {
	r.sn = m.Snapshot()
}

// literalOK transfers ownership at birth inside a composite literal.
func literalOK(m *oakmap.Map[uint64, uint64]) *registry {
	return &registry{sn: m.Snapshot()}
}

// aliasOK conservatively treats re-binding as a transfer: the new name
// owns the snapshot.
func aliasOK(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot()
	global = sn
}

// passOK hands the snapshot to another function, which owns it now.
func passOK(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot()
	consume(sn)
}

// flaggedOK documents a reviewed, deliberately non-deferred Close.
func flaggedOK(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot() //oak:allow pinbalance — straight-line helper, no panic sources between open and close
	sn.Get(1)
	sn.Close()
}

// --- Violations. ---

func discarded(m *oakmap.Map[uint64, uint64]) {
	m.Snapshot() // want "Snapshot result discarded"
}

func blank(m *oakmap.Map[uint64, uint64]) {
	_ = m.Snapshot() // want "Snapshot result assigned to blank"
}

func neverClosed(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot() // want "missing Close: the snapshot is never closed on any path"
	sn.Get(1)
}

func notDeferred(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot() // want "snapshot Close is not deferred"
	sn.Get(1)
	sn.Close()
}

func earlyReturnLeak(m *oakmap.Map[uint64, uint64]) {
	sn := m.Snapshot() // want "snapshot Close is not deferred"
	if cond() {
		return // this path leaks; the analyzer wants the defer form
	}
	sn.Close()
}
