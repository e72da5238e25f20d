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
