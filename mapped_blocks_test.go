//go:build linux && !race

package oakmap_test

import (
	"runtime"
	"testing"
	"time"

	"oakmap"
	"oakmap/internal/arena"
)

// settleMapped runs collections until the finalizers of unreachable
// mappings have unmapped them and the gauge is at most want, and returns
// the gauge.
func settleMapped(want int64) int64 {
	for i := 0; i < 50; i++ {
		runtime.GC()
		if n := arena.MappedBytes(); n <= want {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return arena.MappedBytes()
}

// TestMappedBlocksUnmappedAfterDrop creates and drops 200 maps with
// private block pools: once they are unreachable, the finalizers give
// every mapping back, so the mapped-bytes gauge returns to its start.
func TestMappedBlocksUnmappedAfterDrop(t *testing.T) {
	start := settleMapped(0)
	peak := start
	for i := 0; i < 200; i++ {
		m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
			&oakmap.Options{BlockSize: 1 << 20})
		if err := m.ZC().Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, arena.MappedBytes())
		if i%2 == 0 {
			m.Close()
		}
		if i%20 == 19 {
			runtime.GC() // bound what the dropped maps hold meanwhile
		}
	}
	if peak <= start {
		t.Fatalf("gauge never rose above %d: blocks are not mapped", start)
	}
	if n := settleMapped(start); n > start {
		t.Fatalf("mapped bytes %d after dropping every map, want %d", n, start)
	}
}

// TestMappedViewAfterClose reads a value view after its map is closed
// and a collection has run: Close never unmaps, and the view keeps the
// map, hence its mapping, reachable, so the read returns instead of
// faulting.
func TestMappedViewAfterClose(t *testing.T) {
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{BlockSize: 1 << 20})
	if err := m.ZC().Put([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	v := m.ZC().Get([]byte("k"))
	if v == nil {
		t.Fatal("key not found")
	}
	m.Close()
	m = nil
	runtime.GC()
	runtime.GC() // a second cycle would free what the first finalized
	var got []byte
	err := v.Read(func(b []byte) error { got = append(got, b...); return nil })
	t.Logf("read after Close: %q, err=%v", got, err)
}
