package lincheck

import (
	"bytes"
	"testing"
)

// TestLinearizabilityCheckerSelf sanity-checks the checker itself
// (moved here from internal/core when the engine was extracted).
func TestLinearizabilityCheckerSelf(t *testing.T) {
	// Legal: put(a) then get=a, sequential.
	ok := Linearizable([]Op{
		{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Kind: Get, RetBool: true, RetVal: "a", Inv: 3, Ret: 4},
	})
	if !ok {
		t.Fatal("legal history rejected")
	}
	// Illegal: get observes a value never written.
	ok = Linearizable([]Op{
		{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Kind: Get, RetBool: true, RetVal: "b", Inv: 3, Ret: 4},
	})
	if ok {
		t.Fatal("illegal read accepted")
	}
	// Illegal: get misses after a completed put with no removes.
	ok = Linearizable([]Op{
		{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Kind: Get, RetBool: false, Inv: 3, Ret: 4},
	})
	if ok {
		t.Fatal("lost update accepted")
	}
	// Illegal: two putIfAbsent both succeed with no remove between.
	ok = Linearizable([]Op{
		{Kind: PutIfAbsent, Arg: "a", RetBool: true, Inv: 1, Ret: 2},
		{Kind: PutIfAbsent, Arg: "b", RetBool: true, Inv: 3, Ret: 4},
	})
	if ok {
		t.Fatal("double putIfAbsent accepted")
	}
	// Legal: overlapping put and get may order either way.
	ok = Linearizable([]Op{
		{Kind: Put, Arg: "a", Inv: 1, Ret: 5},
		{Kind: Get, RetBool: false, Inv: 2, Ret: 3},
	})
	if !ok {
		t.Fatal("overlapping ops over-constrained")
	}
	// Legal: compute applies to the present value; get sees the result.
	ok = Linearizable([]Op{
		{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Kind: Compute, Arg: "x", RetBool: true, Inv: 3, Ret: 4},
		{Kind: Get, RetBool: true, RetVal: "a#x", Inv: 5, Ret: 6},
	})
	if !ok {
		t.Fatal("legal compute history rejected")
	}
	// Illegal: compute claims success on an absent key.
	ok = Linearizable([]Op{
		{Kind: Remove, RetBool: false, Inv: 1, Ret: 2},
		{Kind: Compute, Arg: "x", RetBool: true, Inv: 3, Ret: 4},
	})
	if ok {
		t.Fatal("compute on absent key accepted")
	}
	// Illegal: compute's effect lost (get sees pre-compute value after
	// a sequential successful compute).
	ok = Linearizable([]Op{
		{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Kind: Compute, Arg: "x", RetBool: true, Inv: 3, Ret: 4},
		{Kind: Get, RetBool: true, RetVal: "a", Inv: 5, Ret: 6},
	})
	if ok {
		t.Fatal("lost compute accepted")
	}
	// Multi-key: keys are independent — a put on k1 must not satisfy a
	// get on k2...
	ok = Linearizable([]Op{
		{Key: "k1", Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Key: "k2", Kind: Get, RetBool: true, RetVal: "a", Inv: 3, Ret: 4},
	})
	if ok {
		t.Fatal("cross-key read accepted")
	}
	// ...and per-key legality composes.
	ok = Linearizable([]Op{
		{Key: "k1", Kind: Put, Arg: "a", Inv: 1, Ret: 2},
		{Key: "k2", Kind: Put, Arg: "b", Inv: 1, Ret: 2},
		{Key: "k2", Kind: Get, RetBool: true, RetVal: "b", Inv: 3, Ret: 4},
		{Key: "k1", Kind: Get, RetBool: true, RetVal: "a", Inv: 3, Ret: 4},
	})
	if !ok {
		t.Fatal("legal multi-key history rejected")
	}
}

// TestLinearizabilityScanModel checks the scan extensions: per-step
// gets merge into the point-op search, and ScanOrdered rejects
// out-of-order and duplicated yields.
func TestLinearizabilityScanModel(t *testing.T) {
	// A scan step observing a value concurrent with the put that wrote
	// it is legal (the step linearizes after the put inside its window).
	ops := []Op{
		{Key: "a", Kind: Put, Arg: "v1", Inv: 1, Ret: 6},
	}
	ops = append(ops, ScanOps([]ScanStep{
		{Key: "a", Val: "v1", Inv: 2, Ret: 5},
	}, nil)...)
	if !Linearizable(ops) {
		t.Fatal("scan step overlapping its writer rejected")
	}
	// A scan step observing a value that was never current is illegal.
	ops = []Op{
		{Key: "a", Kind: Put, Arg: "v1", Inv: 1, Ret: 2},
	}
	ops = append(ops, ScanOps([]ScanStep{
		{Key: "a", Val: "ghost", Inv: 3, Ret: 4},
	}, nil)...)
	if Linearizable(ops) {
		t.Fatal("scan step with phantom value accepted")
	}
	// A scan step observing a value whose remove completed before the
	// step began is illegal (the read window is after the delete).
	ops = []Op{
		{Key: "a", Kind: Put, Arg: "v1", Inv: 1, Ret: 2},
		{Key: "a", Kind: Remove, RetBool: true, Inv: 3, Ret: 4},
	}
	ops = append(ops, ScanOps([]ScanStep{
		{Key: "a", Val: "v1", Inv: 5, Ret: 6},
	}, nil)...)
	if Linearizable(ops) {
		t.Fatal("scan step resurrecting a removed value accepted")
	}
	// Unwatched keys are dropped.
	got := ScanOps([]ScanStep{
		{Key: "w", Val: "x", Inv: 1, Ret: 2},
		{Key: "noise", Val: "y", Inv: 3, Ret: 4},
	}, func(k string) bool { return k == "w" })
	if len(got) != 1 || got[0].Key != "w" {
		t.Fatalf("ScanOps watched filter: got %v", got)
	}

	// Order checking, both directions.
	asc := []ScanStep{{Key: "a"}, {Key: "b"}, {Key: "c"}}
	if i := ScanOrdered(asc, false, bytes.Compare); i != -1 {
		t.Fatalf("sorted ascending scan flagged at %d", i)
	}
	if i := ScanOrdered(asc, true, bytes.Compare); i != 1 {
		t.Fatalf("ascending scan accepted as descending (i=%d)", i)
	}
	dup := []ScanStep{{Key: "a"}, {Key: "b"}, {Key: "b"}}
	if i := ScanOrdered(dup, false, bytes.Compare); i != 2 {
		t.Fatalf("duplicate yield not flagged (i=%d)", i)
	}
	desc := []ScanStep{{Key: "c"}, {Key: "b"}, {Key: "a"}}
	if i := ScanOrdered(desc, true, bytes.Compare); i != -1 {
		t.Fatalf("sorted descending scan flagged at %d", i)
	}
}

// TestLinearizabilityOldValueModel checks the kinds that return the value
// they replaced or removed: the returned value must be the register's
// value at the op's linearization point, so a value cannot be handed out
// twice, and a removal that found the key cannot report no value.
func TestLinearizabilityOldValueModel(t *testing.T) {
	cases := []struct {
		name  string
		legal bool
		ops   []Op
	}{
		{"put-prev chain", true, []Op{
			{Kind: PutPrev, Arg: "a", RetBool: false, Inv: 1, Ret: 2},
			{Kind: PutPrev, Arg: "b", RetBool: true, RetVal: "a", Inv: 3, Ret: 4},
			{Kind: RemovePrev, RetBool: true, RetVal: "b", Inv: 5, Ret: 6},
			{Kind: RemovePrev, RetBool: false, Inv: 7, Ret: 8},
		}},
		{"put-prev claims a replace on an absent key", false, []Op{
			{Kind: PutPrev, Arg: "a", RetBool: true, RetVal: "", Inv: 1, Ret: 2},
		}},
		{"put-prev misses a completed put", false, []Op{
			{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
			{Kind: PutPrev, Arg: "b", RetBool: false, Inv: 3, Ret: 4},
		}},
		{"put-prev returns a stale value", false, []Op{
			{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
			{Kind: Put, Arg: "b", Inv: 3, Ret: 4},
			{Kind: PutPrev, Arg: "c", RetBool: true, RetVal: "a", Inv: 5, Ret: 6},
		}},
		{"remove-prev reports removed with the wrong value", false, []Op{
			{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
			{Kind: RemovePrev, RetBool: true, RetVal: "", Inv: 3, Ret: 4},
		}},
		{"one value removed twice", false, []Op{
			{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
			{Kind: RemovePrev, RetBool: true, RetVal: "a", Inv: 3, Ret: 6},
			{Kind: RemovePrev, RetBool: true, RetVal: "a", Inv: 4, Ret: 5},
		}},
		{"one value replaced and removed", false, []Op{
			{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
			{Kind: PutPrev, Arg: "b", RetBool: true, RetVal: "a", Inv: 3, Ret: 6},
			{Kind: RemovePrev, RetBool: true, RetVal: "a", Inv: 4, Ret: 5},
		}},
		{"overlapping put-prev and remove-prev order either way", true, []Op{
			{Kind: Put, Arg: "a", Inv: 1, Ret: 2},
			{Kind: PutPrev, Arg: "b", RetBool: false, Inv: 3, Ret: 6},
			{Kind: RemovePrev, RetBool: true, RetVal: "a", Inv: 4, Ret: 5},
			{Kind: Get, RetBool: true, RetVal: "b", Inv: 7, Ret: 8},
		}},
		{"remove-prev misses a present key", false, []Op{
			{Kind: PutIfAbsent, Arg: "a", RetBool: true, Inv: 1, Ret: 2},
			{Kind: RemovePrev, RetBool: false, Inv: 3, Ret: 4},
		}},
	}
	for _, c := range cases {
		if got := Linearizable(c.ops); got != c.legal {
			t.Errorf("%s: Linearizable = %v; want %v", c.name, got, c.legal)
		}
	}
}
