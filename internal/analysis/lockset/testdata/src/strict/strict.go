// Package strict exercises the driver's -strict-suppress mode through
// lockset: a suppression that drops a real diagnostic survives, a
// stale one is reported as a "suppress" finding at the annotation, and
// one naming an analyzer outside the run set is left alone (a partial
// -checks run must not condemn the other analyzers' suppressions).
package strict

import "sync"

type box struct {
	mu sync.Mutex
	n  int //oak:guarded-by mu
}

// usedSuppression really violates the guard; the annotation eats the
// diagnostic, so strict mode has nothing to say about it.
func usedSuppression(b *box) {
	b.n = 1 //oak:allow lockset fixture: a deliberately unguarded write
}

// staleSuppression holds the lock, so no lockset diagnostic lands on
// the annotated line — strict mode flags the annotation itself.
func staleSuppression(b *box) {
	b.mu.Lock()
	b.n = 2 //oak:allow lockset stale: the lock IS held // want "unused suppression: no lockset diagnostic on this line or the next"
	b.mu.Unlock()
}

// otherAnalyzer names an analyzer that is not part of this run;
// strict mode must skip it rather than declare it stale.
func otherAnalyzer(b *box) {
	b.mu.Lock()
	b.n = 3 //oak:allow zcescape outside the run set
	b.mu.Unlock()
}

// standalone suppressions on their own line cover the line below; this
// one is used (the write is unguarded), so strict stays quiet.
func ownLine(b *box) {
	//oak:allow lockset fixture: annotation on its own line above the write
	b.n = 4
}
