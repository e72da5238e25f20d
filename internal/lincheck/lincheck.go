// Package lincheck is the repo's Wing & Gong-style linearizability
// checker, extracted from the core test suite so every map layer — the
// single-map core, the sharded front-end, and whatever sits on top next
// — can verify its concurrent histories against one model.
//
// The checker targets the paper's central correctness claim (§4.5): the
// point operations are linearizable. Callers record concurrent
// histories of operations — invocation/response ordering via a global
// logical clock — and Linearizable searches for a sequential witness: a
// permutation of the operations that (a) respects real-time order and
// (b) is legal for a register with put / putIfAbsent / remove / get /
// compute / upsert semantics, including the legacy put and remove that
// return the value they replaced or removed.
//
// Histories may span multiple keys. Linearizability is compositional
// (Herlihy & Wing's locality theorem): a history over a collection of
// independent objects is linearizable iff each object's subhistory is.
// Map keys are independent registers, so the checker partitions the
// history by key and runs the single-register search on each part —
// exact, and exponential only in the per-key operation count.
//
// Ordered scans are non-atomic in Oak, so a scan as a whole is not a
// linearizable operation — but each scan step is: every yielded entry
// shows a value that was current at some instant inside that step
// (value reads go through the header read lock). ScanOps converts a
// recorded scan into per-step Get operations so the same register
// search validates what a scan observed, and ScanOrdered checks the
// scan-shape guarantees (globally sorted, duplicate-free) that the
// per-key model cannot see.
package lincheck

import "fmt"

// Kind enumerates the modeled operations.
type Kind int

const (
	Put         Kind = iota // unconditional write
	PutIfAbsent             // insert iff absent; RetBool = inserted
	Remove                  // delete; RetBool = was present
	Get                     // read; RetBool = found, RetVal = value
	Upsert                  // putIfAbsentComputeIfPresent: insert Arg, or append "|"+Arg
	Compute                 // computeIfPresent: append "#"+Arg if present; RetBool = applied
	BlindRemove             // delete with unobserved result (batch projection)
	PutPrev                 // write returning the old value; RetBool = replaced, RetVal = old value
	RemovePrev              // delete returning the old value; RetBool = removed, RetVal = old value
)

func (k Kind) String() string {
	return [...]string{"put", "putIfAbsent", "remove", "get", "upsert", "compute", "blindRemove", "putPrev", "removePrev"}[k]
}

// Op is one recorded operation: what was asked, what came back, and the
// logical invocation/response timestamps bounding when it took effect.
type Op struct {
	Key  string // subject key; histories are partitioned on it
	Kind Kind
	Arg  string // value written (put/putIfAbsent) or appended (upsert/compute)
	// results
	RetBool  bool   // putIfAbsent: inserted; remove: removed; get: found; compute: applied
	RetVal   string // get: observed value; putPrev, removePrev: the value replaced or removed
	Inv, Ret uint64 // logical timestamps
}

func (o Op) String() string {
	return fmt.Sprintf("%s[%x](%s)=(%v,%q)@[%d,%d]",
		o.Kind, o.Key, o.Arg, o.RetBool, o.RetVal, o.Inv, o.Ret)
}

// regApply applies op to a sequential register; returns the new value,
// new presence, and whether the op's recorded results are legal from
// state (v, present).
func regApply(v string, present bool, o Op) (string, bool, bool) {
	switch o.Kind {
	case Put:
		return o.Arg, true, true
	case PutIfAbsent:
		if present {
			return v, true, !o.RetBool
		}
		return o.Arg, true, o.RetBool
	case Remove:
		if present {
			return "", false, o.RetBool
		}
		return "", false, !o.RetBool
	case Get:
		if present {
			return v, true, o.RetBool && o.RetVal == v
		}
		return v, false, !o.RetBool
	case Upsert:
		if present {
			return v + "|" + o.Arg, true, true
		}
		return o.Arg, true, true
	case Compute:
		if present {
			return v + "#" + o.Arg, true, o.RetBool
		}
		return v, false, !o.RetBool
	case BlindRemove:
		// A batch delete: the caller never sees whether the key was
		// present, so the op is legal from any state.
		return "", false, true
	case PutPrev:
		if present {
			return o.Arg, true, o.RetBool && o.RetVal == v
		}
		return o.Arg, true, !o.RetBool
	case RemovePrev:
		if present {
			return "", false, o.RetBool && o.RetVal == v
		}
		return "", false, !o.RetBool
	}
	return v, present, false
}

// Linearizable checks a (possibly multi-key) history: it partitions by
// key and searches each per-key subhistory for a sequential witness.
func Linearizable(ops []Op) bool {
	byKey := map[string][]Op{}
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	for _, sub := range byKey {
		if !linearizableKey(sub) {
			return false
		}
	}
	return true
}

// linearizableKey searches for a sequential witness with memoized DFS
// over (done-set bitmask, register value). Per-key history sizes must
// stay small (≤ ~16 ops) — the search is exponential in them.
func linearizableKey(ops []Op) bool {
	n := len(ops)
	type memoKey struct {
		mask    int
		val     string
		present bool
	}
	seen := map[memoKey]bool{}
	var dfs func(mask int, val string, present bool) bool
	dfs = func(mask int, val string, present bool) bool {
		if mask == 1<<n-1 {
			return true
		}
		k := memoKey{mask, val, present}
		if seen[k] {
			return false
		}
		seen[k] = true
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			// Real-time constraint: i may be linearized now only if no
			// other undone op returned before i was invoked.
			ok := true
			for j := 0; j < n; j++ {
				if j != i && mask&(1<<j) == 0 && ops[j].Ret < ops[i].Inv {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			nv, np, legal := regApply(val, present, ops[i])
			if legal && dfs(mask|1<<i, nv, np) {
				return true
			}
		}
		return false
	}
	return dfs(0, "", false)
}

// ScanStep is one yielded entry of a recorded ordered scan: the key and
// value observed, and the logical timestamps bracketing the step (Inv
// taken before the merge/iterator produced the entry, Ret after its
// value was read).
type ScanStep struct {
	Key      string
	Val      string
	Inv, Ret uint64
}

// ScanOps converts a scan's steps into per-step Get operations over the
// watched keys (watched == nil watches every key), for merging into a
// point-op history: each step's observation must be a legal read at
// some instant within [Inv, Ret]. Steps on unwatched keys — background
// churn the register model knows nothing about — are dropped.
func ScanOps(steps []ScanStep, watched func(key string) bool) []Op {
	out := make([]Op, 0, len(steps))
	for _, s := range steps {
		if watched != nil && !watched(s.Key) {
			continue
		}
		out = append(out, Op{
			Key:     s.Key,
			Kind:    Get,
			RetBool: true,
			RetVal:  s.Val,
			Inv:     s.Inv,
			Ret:     s.Ret,
		})
	}
	return out
}

// ScanOrdered verifies the scan-shape guarantee the per-key register
// model cannot express: the yielded keys are strictly ordered (so also
// duplicate-free) by cmp, descending when desc is set. It returns the
// index of the first out-of-order step, or -1 when the scan is sound.
func ScanOrdered(steps []ScanStep, desc bool, cmp func(a, b []byte) int) int {
	for i := 1; i < len(steps); i++ {
		c := cmp([]byte(steps[i-1].Key), []byte(steps[i].Key))
		if desc {
			c = -c
		}
		if c >= 0 {
			return i
		}
	}
	return -1
}
