//go:build arenadebug

package arena

import (
	"strings"
	"testing"
)

// mustPanicWith runs f and asserts it panics with a message containing
// want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want message containing %q", r, want)
		}
	}()
	f()
}

func TestDebugDoubleFreePanics(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	r, _ := a.Alloc(64)
	a.Alloc(64) // keep the bump tail away from the freed span
	a.Free(r)
	mustPanicWith(t, "double/overlapping free", func() { a.Free(r) })
}

func TestDebugOverlappingFreePanics(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	r, _ := a.Alloc(128)
	a.Alloc(64)
	a.Free(r)
	// A ref inside the freed range — the detector must name both ranges.
	inner := MakeRef(r.Block(), r.Offset()+32, 16)
	mustPanicWith(t, "overlaps free span", func() { a.Free(inner) })
}

func TestDebugReuseClearsTracking(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	r1, _ := a.Alloc(64)
	a.Alloc(64)
	a.Free(r1)
	r2, _ := a.Alloc(64) // pops the freed span: range is live again
	if r2.Offset() != r1.Offset() {
		t.Fatalf("expected reuse: %v vs %v", r2, r1)
	}
	a.Free(r2) // must NOT panic — the range was reallocated in between
}

func TestDebugSplitRemainderTracked(t *testing.T) {
	a := NewAllocator(NewPool(1<<16, 0))
	defer a.Close()
	r, _ := a.Alloc(largeMin)
	a.Alloc(64)
	a.Free(r)
	head, _ := a.Alloc(32) // carves the large span's head; remainder re-parked
	if head.Offset() != r.Offset() {
		t.Fatalf("expected head carve: %v vs %v", head, r)
	}
	// Freeing a ref overlapping the still-free remainder must panic.
	overlap := MakeRef(r.Block(), r.Offset()+64, 32)
	mustPanicWith(t, "overlaps free span", func() { a.Free(overlap) })
}

func TestDebugCompactKeepsTracking(t *testing.T) {
	a := NewAllocator(NewPool(4096, 0))
	defer a.Close()
	r1, _ := a.Alloc(64)
	r2, _ := a.Alloc(64)
	a.Alloc(64)
	a.Free(r1)
	a.Free(r2)
	a.compact(0) // merges the two spans; tracking must survive
	mustPanicWith(t, "double/overlapping free", func() { a.Free(r1) })
	// Popping the merged span clears both fragments.
	r3, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Offset() != r1.Offset() {
		t.Fatalf("merged span not reused: %v", r3)
	}
	a.Free(r3) // no panic: the whole range is live again
}

func TestDebugChecksFlag(t *testing.T) {
	if !DebugChecks {
		t.Fatal("DebugChecks must be true under the arenadebug tag")
	}
}
