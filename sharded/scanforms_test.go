package sharded

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"strings"
	"testing"

	"oakmap/internal/core"
)

// TestScanFormsAgreeUnderRebalance: every way of walking a map — the
// push scans (core Ascend/Descend), the pull core.Cursor and a one-shard
// merged Cursor, live or frozen over a snapshot opened per round — is the
// same core cursor underneath, so over any bounds they must yield the
// identical sequence of the keys that stay put (the frozen forms with
// their values), while a writer churns the keys in between hard enough to
// keep 16-entry chunks splitting and merging under the scans.
func TestScanFormsAgreeUnderRebalance(t *testing.T) {
	s := newTestSharded(t, 1, 16)
	c := s.Shards()[0]
	const span, stride = 4000, 8 // the 8-byte keys ik(0), ik(8), … are stable
	for i := 0; i < span; i += stride {
		if err := s.Put(ik(i), iv(i)); err != nil {
			t.Fatal(err)
		}
	}
	loaded := c.Rebalances()
	// The writer churns 9-byte keys that sort between the stable ones: a
	// window of 256 live at a time, each a fresh key, so entries are never
	// reused — chunks keep filling up (split), and emptying to the few
	// stable keys they hold (merge).
	bg := newWriters(t)
	wrng := rand.New(rand.NewPCG(1, 2))
	var window [256][]byte
	bg.run(t, func(i int) error {
		slot := &window[i%len(window)]
		if *slot != nil {
			if _, err := s.Remove(*slot); err != nil {
				return err
			}
		}
		*slot = append(ik(wrng.IntN(span)), byte(i), byte(i>>8), byte(i>>16))
		return s.Put(*slot, iv(i))
	})

	rng := rand.New(rand.NewPCG(42, 7))
	for round := 0; round < 300; round++ {
		var lo, hi []byte
		a, b := rng.IntN(span), rng.IntN(span)
		if a > b {
			a, b = b, a
		}
		if rng.IntN(4) > 0 {
			lo = ik(a)
		} else {
			a = 0
		}
		if rng.IntN(4) > 0 {
			hi = ik(b)
		} else {
			b = span
		}
		desc := rng.IntN(2) == 1

		var want []int
		for i := (a + stride - 1) / stride * stride; i < b; i += stride {
			want = append(want, i)
		}
		if desc {
			for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
				want[i], want[j] = want[j], want[i]
			}
		}

		sn := s.Snapshot()
		forms := map[string]func(yield func(key, val []byte)){
			"push": func(yield func(_, _ []byte)) {
				scan := c.Ascend
				if desc {
					scan = c.Descend
				}
				scan(lo, hi, func(kr uint64, _ core.ValueHandle) bool {
					yield(c.KeyBytes(kr), nil)
					return true
				})
			},
			"pull": func(yield func(_, _ []byte)) {
				cur := c.NewCursor(lo, hi, desc)
				for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
					yield(cur.Key(), nil)
				}
			},
			"one-shard merged": func(yield func(_, _ []byte)) {
				cur := s.NewCursor(lo, hi, desc)
				for _, k, _, _, ok := cur.Next(); ok; _, k, _, _, ok = cur.Next() {
					yield(k, nil)
				}
			},
			"frozen pull": func(yield func(_, _ []byte)) {
				cur := c.NewFrozenCursor(sn.Versions()[0], lo, hi, desc)
				for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
					yield(cur.Key(), cur.Val())
				}
			},
			"frozen one-shard merged": func(yield func(_, _ []byte)) {
				cur := sn.NewCursor(lo, hi, desc)
				for _, k, _, _, ok := cur.Next(); ok; _, k, _, _, ok = cur.Next() {
					yield(k, cur.Val())
				}
			},
		}
		for name, form := range forms {
			frozen := strings.HasPrefix(name, "frozen")
			var got []int
			var prev []byte
			form(func(key, val []byte) {
				if d := bytes.Compare(prev, key); prev != nil && (d == 0 || (d < 0) == desc) {
					t.Fatalf("round %d %s: %x after %x (desc=%v)", round, name, key, prev, desc)
				}
				prev = append(prev[:0], key...)
				if len(key) == 8 {
					i := int(binary.BigEndian.Uint64(key))
					if frozen && !bytes.Equal(val, iv(i)) {
						t.Fatalf("round %d %s: key %d = %q; want %q", round, name, i, val, iv(i))
					}
					got = append(got, i)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("round %d %s [%d,%d) desc=%v: %d stable keys; want %d", round, name, a, b, desc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d %s [%d,%d) desc=%v: key %d at %d; want %d", round, name, a, b, desc, got[i], i, want[i])
				}
			}
		}
		sn.Close()
	}
	bg.halt()
	if n := c.Rebalances() - loaded; n < 20 {
		t.Fatalf("only %d rebalances: the writer did not force splits/merges under the scans", n)
	} else {
		t.Logf("%d rebalances under 300 rounds of scans", n)
	}
}
