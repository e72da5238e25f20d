package arena

import (
	"errors"
	"sync"
	"sync/atomic"

	"oakmap/internal/telemetry"
)

// DefaultBlockSize matches the paper's default arena size of 100 MB.
// Benchmarks and tests typically configure smaller blocks.
const DefaultBlockSize = 100 << 20

// ErrPoolExhausted is returned when the pool's block budget is spent.
var ErrPoolExhausted = errors.New("arena: block pool exhausted")

// block is one large pointer-free slab. Blocks are pre-zeroed on first
// creation and recycled between allocators through the pool; recycled
// blocks are not re-zeroed (allocators fully overwrite what they hand
// out).
type block struct {
	buf []byte
	// src is the mapping buf was carved from, nil for a Go-heap block.
	// Nothing else keeps the mapping alive: the garbage collector does
	// not see references into it.
	src *mapping
}

// mapping is one anonymous private mapping that blocks are carved from
// (mmap_linux.go). It holds only the slice syscall.Munmap must be given
// back, so a finalizer on it runs once the last block carved from it,
// and the pool, no longer point to it.
type mapping struct {
	raw []byte
}

// mappedBytes is the total length of the live mappings in the process.
var mappedBytes atomic.Int64

// MappedBytes reports the length of the live anonymous mappings that
// blocks are carved from, whether loaned, retained or not yet carved,
// alignment slack included. It is 0 in builds that take blocks from the
// Go heap.
func MappedBytes() int64 { return mappedBytes.Load() }

// Pool is a shared pool of off-heap blocks, the analogue of the paper's
// shared pool of pre-allocated arenas (§3.2). Multiple Oak instances draw
// blocks from one pool and return them when the instance is closed.
type Pool struct {
	blockSize int
	maxBytes  int64 // 0 = unlimited

	mu   sync.Mutex
	free []*block
	// src is the mapping the pool is still carving blocks from, and
	// srcFree its aligned bytes not carved yet.
	src     *mapping //oak:guarded-by mu
	srcFree []byte   //oak:guarded-by mu
	// created counts the blocks ever created; those not on free are
	// loaned to allocators.
	created int64 //oak:guarded-by mu

	// tel, when set, receives block retain flight-recorder events.
	tel atomic.Pointer[telemetry.Recorder]
}

// SetTelemetry attaches a recorder for block retain events. Safe
// to call concurrently; nil detaches.
func (p *Pool) SetTelemetry(r *telemetry.Recorder) {
	p.tel.Store(r)
}

// NewPool creates a pool producing blocks of blockSize bytes. maxBytes
// bounds the total bytes the pool will ever create (0 means unbounded).
// Released blocks are retained for reuse.
func NewPool(blockSize int, maxBytes int64) *Pool {
	if blockSize <= 0 || blockSize > MaxBlockSize {
		panic("arena: invalid block size")
	}
	return &Pool{blockSize: blockSize, maxBytes: maxBytes}
}

// BlockSize returns the size in bytes of blocks this pool produces.
func (p *Pool) BlockSize() int { return p.blockSize }

// acquire hands out a block, recycling a freed one when available.
func (p *Pool) acquire() (*block, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b, nil
	}
	if p.maxBytes > 0 && (p.created+1)*int64(p.blockSize) > p.maxBytes {
		p.mu.Unlock()
		return nil, ErrPoolExhausted
	}
	p.created++
	b := p.carveLocked()
	p.mu.Unlock()
	if b == nil {
		// Allocate outside the lock: creating 100MB is the slow path.
		b = &block{buf: make([]byte, p.blockSize)}
	}
	return b, nil
}

// carveLocked cuts the next block from the current mapping, mapping a
// fresh one when the current one is used up. It returns nil when no
// mapping can be made (other systems, race builds, a failed mmap); the
// caller then takes the block from the Go heap. Caller holds p.mu.
func (p *Pool) carveLocked() *block {
	if len(p.srcFree) < p.blockSize {
		p.src, p.srcFree = nil, nil
		// A failed madvise still leaves a usable mapping; a failed mmap
		// leaves none, which m == nil reports.
		m, buf, _ := mapBlocks(p.blockSize)
		if m == nil {
			return nil
		}
		p.src, p.srcFree = m, buf
	}
	n := p.blockSize
	b := &block{buf: p.srcFree[:n:n], src: p.src}
	p.srcFree = p.srcFree[n:]
	return b
}

// release returns a block to the pool for reuse by other allocators.
func (p *Pool) release(b *block) {
	p.mu.Lock()
	p.free = append(p.free, b)
	retained := len(p.free)
	p.mu.Unlock()
	p.tel.Load().Event(telemetry.EvBlockRetain, uint64(retained), 0, 0)
}

// Stats reports pool-level accounting.
type PoolStats struct {
	BlockSize      int
	BlocksCreated  int64
	BlocksLoaned   int64
	BytesCapacity  int64
	BlocksRetained int   // free blocks currently held for reuse
	BytesRetained  int64 // bytes of those free blocks
}

// Stats returns a snapshot of the pool's accounting, read under one lock.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	created, retained := p.created, int64(len(p.free))
	p.mu.Unlock()
	return PoolStats{
		BlockSize:      p.blockSize,
		BlocksCreated:  created,
		BlocksLoaned:   created - retained,
		BytesCapacity:  created * int64(p.blockSize),
		BlocksRetained: int(retained),
		BytesRetained:  retained * int64(p.blockSize),
	}
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide shared pool with DefaultBlockSize
// blocks, created on first use.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(DefaultBlockSize, 0)
	})
	return defaultPool
}
