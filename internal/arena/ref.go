// Package arena implements Oak's off-heap memory substrate: a pool of
// large pointer-free byte slabs ("blocks"), a per-map allocator whose
// exact size classes are lock-free free lists (internal/freelist) and
// whose spans of 8 KiB and more share one coalescing list, and packed
// 64-bit references into the slabs.
//
// In the paper, keys and values are allocated in off-heap arenas obtained
// via direct ByteBuffers so that the JVM garbage collector never scans
// them. The Go equivalent of that property is a large []byte: it is a
// single allocation with no interior pointers, so the Go GC treats it as
// one opaque object regardless of how many keys and values live inside
// it. The pool pre-allocates such blocks and shares them between map
// instances, exactly like the paper's shared arena pool (§3.2).
package arena

import "fmt"

// Ref is a packed reference to a byte range inside an allocator's blocks.
// Layout (from the most significant bit down):
//
//	block+1 : 10 bits (0 means the nil reference)
//	offset  : 27 bits (blocks of up to 128 MiB — fits the paper's 100MB)
//	length  : 27 bits (objects of up to 128 MiB-1)
//
// The all-zero value is NilRef, the paper's ⊥ reference. Encoding
// block+1 rather than block keeps block 0/offset 0/length 0 distinct
// from ⊥. With 1023 blocks of 100MB, one map addresses ~100GB of
// off-heap data, matching the paper's largest experiments.
type Ref uint64

const (
	blockBits  = 10
	offsetBits = 27
	lengthBits = 27

	// MaxBlocks is the maximum number of blocks a single allocator can
	// own (the block field encodes block+1, so one encoding is spent on
	// the nil reference).
	MaxBlocks = 1<<blockBits - 1
	// MaxBlockSize is the largest supported block size.
	MaxBlockSize = 1 << offsetBits
	// MaxAllocSize is the largest single allocation representable.
	MaxAllocSize = 1<<lengthBits - 1

	offsetMask = 1<<offsetBits - 1
	lengthMask = 1<<lengthBits - 1
)

// NilRef is the null reference (the paper's ⊥).
const NilRef Ref = 0

// MakeRef packs a block index, byte offset and length into a Ref.
// It panics if any component is out of range; callers validate sizes
// before allocating.
func MakeRef(block, offset, length int) Ref {
	if block < 0 || block >= MaxBlocks {
		panic(fmt.Sprintf("arena: block %d out of range", block))
	}
	if offset < 0 || offset >= MaxBlockSize {
		panic(fmt.Sprintf("arena: offset %d out of range", offset))
	}
	if length < 0 || length > MaxAllocSize {
		panic(fmt.Sprintf("arena: length %d out of range", length))
	}
	return Ref(uint64(block+1)<<(offsetBits+lengthBits) |
		uint64(offset)<<lengthBits |
		uint64(length))
}

// IsNil reports whether r is the nil reference.
func (r Ref) IsNil() bool { return r == NilRef }

// Block returns the block index the reference points into.
func (r Ref) Block() int { return int(uint64(r)>>(offsetBits+lengthBits)) - 1 }

// Offset returns the byte offset within the block.
func (r Ref) Offset() int { return int(uint64(r) >> lengthBits & offsetMask) }

// Len returns the length in bytes of the referenced range.
func (r Ref) Len() int { return int(uint64(r) & lengthMask) }

// End returns Offset()+Len(), the exclusive end of the range.
func (r Ref) End() int { return r.Offset() + r.Len() }

// String renders the reference for debugging.
func (r Ref) String() string {
	if r.IsNil() {
		return "ref(nil)"
	}
	return fmt.Sprintf("ref(b%d+%d:%d)", r.Block(), r.Offset(), r.Len())
}
