package arena

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

func BenchmarkAllocFixed(b *testing.B) {
	a := NewAllocator(NewPool(64<<20, 0))
	defer a.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Alloc(128); err != nil {
			b.Fatal(err)
		}
	}
}

// churnSizes spreads requests over every size class plus the large list.
var churnSizes = [...]int{24, 64, 100, 128, 200, 512, 1000, 2048, 4096, 9000}

// BenchmarkAllocFreeChurn is the single-goroutine churn: a bounded live
// set, random frees, mixed sizes — the steady state of a map under
// put/remove load.
func BenchmarkAllocFreeChurn(b *testing.B) {
	a := NewAllocator(NewPool(1<<20, 0))
	defer a.Close()
	live := make([]Ref, 0, 1024)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) == cap(live) {
			idx := int(rng.Uint64() % uint64(len(live)))
			a.Free(live[idx])
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		n := churnSizes[rng.Uint64()%uint64(len(churnSizes))]
		r, err := a.Alloc(n)
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, r)
	}
}

// BenchmarkChurnParallel is the contention benchmark behind the
// size-class design: G goroutines churn mixed-size alloc/free against
// one allocator, whose size classes are lock-free striped free lists.
func BenchmarkChurnParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("g=%d", workers), func(b *testing.B) {
			a := NewAllocator(NewPool(1<<20, 0))
			defer a.Close()
			// Warm the free structures into churn steady state.
			warm := make([]Ref, 0, 2048)
			rng := rand.New(rand.NewPCG(7, 9))
			for i := 0; i < cap(warm); i++ {
				r, err := a.Alloc(churnSizes[rng.Uint64()%uint64(len(churnSizes))])
				if err != nil {
					b.Fatal(err)
				}
				warm = append(warm, r)
			}
			for _, r := range warm {
				a.Free(r)
			}
			perG := b.N/workers + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(g), 0xbe9c))
					live := make([]Ref, 0, 256)
					for i := 0; i < perG; i++ {
						if len(live) == cap(live) {
							idx := int(rng.Uint64() % uint64(len(live)))
							a.Free(live[idx])
							live[idx] = live[len(live)-1]
							live = live[:len(live)-1]
						}
						n := churnSizes[rng.Uint64()%uint64(len(churnSizes))]
						r, err := a.Alloc(n)
						if err != nil {
							b.Error(err)
							return
						}
						live = append(live, r)
					}
					for _, r := range live {
						a.Free(r)
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			st := a.Stats()
			b.ReportMetric(float64(st.Footprint)/(1<<20), "footprintMB")
		})
	}
}

// BenchmarkFootprintChurn measures footprint-over-time: sustained churn
// that compacts only through the rescue path, reporting final footprint
// and fragmentation so regressions in reuse show up as metric drift,
// not just ns/op.
func BenchmarkFootprintChurn(b *testing.B) {
	a := NewAllocator(NewPool(1<<20, 0))
	defer a.Close()
	rng := rand.New(rand.NewPCG(3, 5))
	live := make([]Ref, 0, 512)
	for i := 0; i < b.N; i++ {
		if len(live) == cap(live) {
			idx := int(rng.Uint64() % uint64(len(live)))
			a.Free(live[idx])
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		r, err := a.Alloc(churnSizes[rng.Uint64()%uint64(len(churnSizes))])
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, r)
	}
	st := a.Stats()
	b.ReportMetric(float64(st.Footprint)/(1<<20), "footprintMB")
	b.ReportMetric(st.Fragmentation, "frag")
}

func BenchmarkBytesAccess(b *testing.B) {
	a := NewAllocator(NewPool(1<<20, 0))
	defer a.Close()
	r, _ := a.Alloc(256)
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		buf := a.Bytes(r)
		sink ^= buf[0]
	}
	_ = sink
}

func BenchmarkRefPack(b *testing.B) {
	var sink Ref
	for i := 0; i < b.N; i++ {
		sink = MakeRef(i%MaxBlocks, i&0x3ffffff, 128)
	}
	_ = sink
}

// BenchmarkUniformChurn sets the arena beside the Go heap on a churn of
// lengths uniform over every byte count from 64 to 2,048 (write-churn's
// range, not its powers of two): a ring of 4,096 live buffers, each op
// replacing one with a buffer of a fresh random length. make leaves the
// old buffer to the garbage collector; sync.Pool recycles 2 KiB buffers
// resliced to length; the arena frees the span and allocates the new one.
func BenchmarkUniformChurn(b *testing.B) {
	const ring = 4096
	length := func(rng *rand.Rand) int { return 64 + rng.IntN(2048-64+1) }
	b.Run("make", func(b *testing.B) {
		live := make([][]byte, ring)
		rng := rand.New(rand.NewPCG(1, 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			live[i%ring] = make([]byte, length(rng))
		}
	})
	b.Run("sync.Pool", func(b *testing.B) {
		p := sync.Pool{New: func() any { return new([2048]byte) }}
		live := make([]*[2048]byte, ring)
		rng := rand.New(rand.NewPCG(1, 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if old := live[i%ring]; old != nil {
				p.Put(old)
			}
			buf := p.Get().(*[2048]byte)
			_ = buf[:length(rng)]
			live[i%ring] = buf
		}
	})
	b.Run("arena", func(b *testing.B) {
		a := NewAllocator(NewPool(1<<20, 0))
		defer a.Close()
		live := make([]Ref, ring)
		rng := rand.New(rand.NewPCG(1, 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if old := live[i%ring]; !old.IsNil() {
				a.Free(old)
			}
			r, err := a.Alloc(length(rng))
			if err != nil {
				b.Fatal(err)
			}
			live[i%ring] = r
		}
		b.StopTimer()
		b.ReportMetric(float64(a.Footprint())/float64(a.LiveBytes()), "footprint/live")
	})
}
