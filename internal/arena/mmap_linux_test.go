//go:build linux && !race

package arena

import (
	"errors"
	"testing"
	"unsafe"
)

// TestMappedBlocksAligned checks that blocks come from a mapping whose
// huge-page advice was accepted, and that every block of a mapping
// whose length is a multiple of hugePageSize starts on a 2 MiB line.
func TestMappedBlocksAligned(t *testing.T) {
	m, buf, err := mapBlocks(3 << 20)
	if m == nil || err != nil {
		t.Fatalf("mapBlocks: mapping=%v err=%v", m != nil, err)
	}
	if len(buf) != 4<<20 {
		t.Fatalf("mapping holds %d bytes, want %d", len(buf), 4<<20)
	}
	p := NewPool(hugePageSize, 0)
	for i := 0; i < 3; i++ {
		b, err := p.acquire()
		if err != nil {
			t.Fatal(err)
		}
		if b.src == nil {
			t.Fatalf("block %d came from the Go heap", i)
		}
		if addr := uintptr(unsafe.Pointer(&b.buf[0])); addr%hugePageSize != 0 {
			t.Fatalf("block %d at %#x is not %d-aligned", i, addr, hugePageSize)
		}
		b.buf[len(b.buf)-1] = 1 // the whole block is mapped and writable
	}
}

// TestMappedBlocksCarved checks that one mapping serves ⌊len/blockSize⌋
// blocks before the pool maps the next.
func TestMappedBlocksCarved(t *testing.T) {
	p := NewPool(768<<10, 0) // a 2 MiB mapping holds two blocks
	var srcs []*mapping
	for i := 0; i < 4; i++ {
		b, err := p.acquire()
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, b.src)
	}
	if srcs[0] != srcs[1] || srcs[2] != srcs[3] || srcs[1] == srcs[2] {
		t.Fatal("blocks 0,1 and 2,3 must share a mapping, and the pairs differ")
	}
}

// TestMappedPoolExhausted checks that maxBytes caps blocks, not
// mappings: the pool refuses the block past the budget even though its
// mapping still has room for it.
func TestMappedPoolExhausted(t *testing.T) {
	const bs = 512 << 10
	p := NewPool(bs, 3*bs)
	for i := 0; i < 3; i++ {
		if _, err := p.acquire(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if _, err := p.acquire(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("4th block: err=%v, want ErrPoolExhausted", err)
	}
	if st := p.Stats(); st.BlocksCreated != 3 || st.BytesCapacity != 3*bs {
		t.Fatalf("stats %+v, want 3 blocks of %d", st, bs)
	}
}
