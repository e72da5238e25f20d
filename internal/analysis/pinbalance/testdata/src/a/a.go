// Package a exercises the pinbalance analyzer: leaked, escaped, and
// panic-exposed epoch guards, next to the deferred and pin-cycling
// forms the codebase actually uses.
package a

import "oakmap/internal/epoch"

func cond() bool { return true }

func work() {}

// --- Safe forms: no diagnostics. ---

func deferredOK(d *epoch.Domain) {
	g := d.Pin()
	defer g.Unpin()
	work()
	if cond() {
		return // early return is fine: the defer releases
	}
	work()
}

func deferredClosureOK(d *epoch.Domain) {
	g := d.Pin()
	defer func() {
		g.Unpin()
	}()
	work()
}

// pinCycleOK is the codebase's pin-cycling idiom: the deferred closure
// releases whichever guard is current, so re-pins inside the loop are
// balanced and panic-safe.
func pinCycleOK(d *epoch.Domain) {
	g := d.Pin()
	defer func() { g.Unpin() }()
	for i := 0; i < 8; i++ {
		g.Unpin()
		g = d.Pin()
	}
}

func balancedNoCallsOK(d *epoch.Domain) {
	g := d.Pin()
	g.Unpin()
}

// --- Unreleasable guards. ---

func discarded(d *epoch.Domain) {
	d.Pin() // want `Pin result discarded: the guard can never be released`
}

func blankBound(d *epoch.Domain) {
	_ = d.Pin() // want `Pin result assigned to blank: the guard can never be released`
}

// --- Path-dependent leaks (no defer). ---

func earlyReturnLeak(d *epoch.Domain) int {
	g := d.Pin()
	if cond() { // want `call inside a pin window without a deferred Unpin: a panic here leaks the pin`
		return 1 // want `return while the epoch guard is still pinned: missing Unpin on this path`
	}
	g.Unpin()
	return 0
}

func panicHole(d *epoch.Domain) {
	g := d.Pin()
	work() // want `call inside a pin window without a deferred Unpin: a panic here leaks the pin`
	g.Unpin()
}

func missingUnpin(d *epoch.Domain) {
	g := d.Pin() // want `missing Unpin: the guard is still pinned when the function ends`
	_ = g
}

func doubleUnpin(d *epoch.Domain) {
	g := d.Pin()
	g.Unpin()
	g.Unpin() // want `double Unpin of the same guard`
}

func repinLeak(d *epoch.Domain) {
	g := d.Pin()
	g = d.Pin() // want `re-pin while the previous guard is still held: the first pin leaks`
	g.Unpin()
}

func loopImbalance(d *epoch.Domain) {
	g := d.Pin()             // want `missing Unpin: the guard is still pinned when the function ends`
	for i := 0; i < 3; i++ { // want `pin/unpin imbalance across a loop iteration`
		g.Unpin()
	}
}

func viaGoto(d *epoch.Domain) {
	g := d.Pin() // want `pin released through unstructured control flow \(goto/label\): use defer g.Unpin\(\)`
	if cond() {  // want `call inside a pin window without a deferred Unpin`
		goto out
	}
	g.Unpin()
	return
out:
	g.Unpin()
}

// --- Escaping guards. ---

func guardReturned(d *epoch.Domain) epoch.Guard {
	g := d.Pin()
	return g // want `epoch guard returned from the acquiring function: release responsibility becomes untrackable`
}

type keeper struct {
	g epoch.Guard
}

func guardStored(d *epoch.Domain, k *keeper) {
	g := d.Pin()
	k.g = g // want `epoch guard stored into memory that outlives the acquiring function`
	k.g.Unpin()
}

func guardSent(d *epoch.Domain, ch chan epoch.Guard) {
	g := d.Pin()
	ch <- g // want `epoch guard sent on a channel: release responsibility becomes untrackable`
}

func guardToGoroutine(d *epoch.Domain) {
	g := d.Pin()
	go func() {
		g.Unpin() // want `epoch guard captured by a goroutine: the pin outlives the acquiring frame`
	}()
}

// --- The *Pinned naming convention. ---

func seekPinned(d *epoch.Domain) {}

func conventionViolated(d *epoch.Domain) {
	seekPinned(d) // want `seekPinned called without a pin in scope: \*Pinned functions require the caller to hold an epoch pin`
}

func conventionOK(d *epoch.Domain) {
	g := d.Pin()
	defer g.Unpin()
	seekPinned(d)
}

func conventionChainedOK(d *epoch.Domain) func() {
	g := d.Pin()
	defer g.Unpin()
	return func() { seekPinned(d) }
}
