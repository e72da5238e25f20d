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
}

// Pool is a shared pool of off-heap blocks, the analogue of the paper's
// shared pool of pre-allocated arenas (§3.2). Multiple Oak instances draw
// blocks from one pool and return them when the instance is closed.
type Pool struct {
	blockSize int
	maxBytes  int64 // 0 = unlimited

	mu   sync.Mutex
	free []*block

	created  atomic.Int64 // blocks ever created
	loaned   atomic.Int64 // blocks currently held by allocators
	capacity atomic.Int64 // total bytes in existence (free + loaned)

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
		p.loaned.Add(1)
		return b, nil
	}
	if p.maxBytes > 0 && p.capacity.Load()+int64(p.blockSize) > p.maxBytes {
		p.mu.Unlock()
		return nil, ErrPoolExhausted
	}
	p.capacity.Add(int64(p.blockSize))
	p.created.Add(1)
	p.mu.Unlock()
	// Allocate outside the lock: creating 100MB is the slow path.
	b := &block{buf: make([]byte, p.blockSize)}
	p.loaned.Add(1)
	return b, nil
}

// release returns a block to the pool for reuse by other allocators.
func (p *Pool) release(b *block) {
	p.loaned.Add(-1)
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

// Stats returns a snapshot of the pool's accounting counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	retained := len(p.free)
	p.mu.Unlock()
	return PoolStats{
		BlockSize:      p.blockSize,
		BlocksCreated:  p.created.Load(),
		BlocksLoaned:   p.loaned.Load(),
		BytesCapacity:  p.capacity.Load(),
		BlocksRetained: retained,
		BytesRetained:  int64(retained) * int64(p.blockSize),
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
