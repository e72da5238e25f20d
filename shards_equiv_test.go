package oakmap

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestShardsZeroEqualsOne: Options.Shards 0 and 1 both mean one Oak
// instance, reached through the same code. The same seeded script —
// point ops, navigation, polls, stream scans, snapshots, batches — must
// produce the identical transcript on both.
func TestShardsZeroEqualsOne(t *testing.T) {
	transcript := func(shards int) []string {
		m := New[uint64, string](Uint64Serializer{}, StringSerializer{},
			&Options{ChunkCapacity: 16, BlockSize: 1 << 20, Shards: shards})
		defer m.Close()
		if n := m.NumShards(); n != 1 {
			t.Fatalf("Shards=%d gave %d shards; want 1", shards, n)
		}
		rng := rand.New(rand.NewPCG(7, 11))
		var out []string
		log := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
		stream := func(from, to *uint64, desc bool) {
			scan := m.ZC().AscendStream
			if desc {
				scan = m.ZC().DescendStream
			}
			n := 0
			scan(from, to, func(k, v *OakRBuffer) bool {
				kb, _ := k.Bytes()
				vb, _ := v.Bytes()
				log("  %x=%s", kb, vb)
				n++
				return n < 12
			})
		}
		for i := 0; i < 3000; i++ {
			k := rng.Uint64N(200)
			v := fmt.Sprintf("v%d", i)
			switch op := rng.IntN(20); op {
			case 0, 1, 2, 3:
				prev, replaced, err := m.Put(k, v)
				log("put %d: %q %v %v", k, prev, replaced, err)
			case 4, 5:
				got, ok := m.Get(k)
				log("get %d: %q %v", k, got, ok)
			case 6:
				old, ins, err := m.PutIfAbsent(k, v)
				log("putIfAbsent %d: %q %v %v", k, old, ins, err)
			case 7, 8:
				prev, removed, err := m.Remove(k)
				log("remove %d: %q %v %v", k, prev, removed, err)
			case 9:
				ok, err := m.ComputeIfPresent(k, func(s string) string { return s + "+" })
				log("compute %d: %v %v", k, ok, err)
			case 10:
				log("merge %d: %v", k, m.Merge(k, v, func(s string) string { return s + "&" }))
			case 11:
				first, okf := m.FirstKey()
				last, okl := m.LastKey()
				floor, okfl := m.FloorKey(k)
				ceil, okc := m.CeilingKey(k)
				lower, oklo := m.LowerKey(k)
				higher, okh := m.HigherKey(k)
				log("nav %d: %d%v %d%v %d%v %d%v %d%v %d%v", k,
					first, okf, last, okl, floor, okfl, ceil, okc, lower, oklo, higher, okh)
			case 12:
				pk, pv, ok, err := m.PollFirst()
				log("pollFirst: %d %q %v %v", pk, pv, ok, err)
			case 13:
				pk, pv, ok, err := m.PollLast()
				log("pollLast: %d %q %v %v", pk, pv, ok, err)
			case 14, 15:
				hi := k + 40
				log("stream [%d,%d) desc=%v:", k, hi, op == 15)
				stream(&k, &hi, op == 15)
			case 16, 17:
				sn := m.Snapshot()
				m.Put(k, "after-snapshot")
				got, ok := sn.Get(k)
				log("snapshot get %d: %q %v; scan:", k, got, ok)
				sn.Ascend(&k, nil, func(sk uint64, sv string) bool {
					log("  %d=%s", sk, sv)
					return sk < k+10
				})
				sn.Close()
			default:
				err := m.ApplyBatch([]Op[uint64, string]{
					{Key: k, Value: v},
					{Key: k + 1, Delete: true},
					{Key: k + 2, Value: v},
					{Key: k + 2, Value: v + "'"},
				})
				log("batch %d: %v len=%d", k, err, m.Len())
			}
		}
		log("final:")
		stream(nil, nil, false)
		return out
	}
	zero, one := transcript(0), transcript(1)
	if len(zero) != len(one) {
		t.Fatalf("transcripts differ in length: %d vs %d lines", len(zero), len(one))
	}
	for i := range zero {
		if zero[i] != one[i] {
			t.Fatalf("line %d differs:\n Shards=0: %s\n Shards=1: %s", i, zero[i], one[i])
		}
	}
}
