package vheader

import "testing"

func BenchmarkReadLockUnlock(b *testing.B) {
	t := NewTable()
	h := t.Alloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !t.TryReadLock(h) {
			b.Fatal("lock failed")
		}
		t.ReadUnlock(h)
	}
}

func BenchmarkWriteLockUnlock(b *testing.B) {
	t := NewTable()
	h := t.Alloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !t.TryWriteLock(h) {
			b.Fatal("lock failed")
		}
		t.WriteUnlock(h)
	}
}

func BenchmarkAllocDefault(b *testing.B) {
	t := NewTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Alloc()
	}
}

func BenchmarkConcurrentReadLock(b *testing.B) {
	t := NewTable()
	h := t.Alloc()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if t.TryReadLock(h) {
				t.ReadUnlock(h)
			}
		}
	})
}

// BenchmarkAllocRecycled times Alloc when every header comes off a free
// list: batches of 256 are allocated, deleted and freed in turn.
func BenchmarkAllocRecycled(b *testing.B) {
	t := NewTable()
	hs := make([]uint64, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hs = append(hs, t.Alloc())
		if len(hs) == cap(hs) {
			b.StopTimer()
			for _, h := range hs {
				t.TryDelete(h)
			}
			t.Free(hs)
			hs = hs[:0]
			b.StartTimer()
		}
	}
}
