package oakmap

import (
	"bytes"
	"sync"
	"testing"
)

func bufferMap(t *testing.T) (*Map[uint64, []byte], ZeroCopyMap[uint64, []byte]) {
	t.Helper()
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	t.Cleanup(m.Close)
	return m, m.ZC()
}

func TestRBufferAccessors(t *testing.T) {
	_, zc := bufferMap(t)
	val := []byte{0, 0, 0, 0, 0, 0, 1, 42, 0xFF}
	zc.Put(7, val)
	buf := zc.Get(7)

	n, err := buf.Len()
	if err != nil || n != len(val) {
		t.Fatalf("Len = %d, %v", n, err)
	}
	b, err := buf.ByteAt(8)
	if err != nil || b != 0xFF {
		t.Fatalf("ByteAt(8) = %x, %v", b, err)
	}
	u, err := buf.Uint64At(0)
	if err != nil || u != 1<<8|42 {
		t.Fatalf("Uint64At(0) = %d, %v", u, err)
	}
	out, err := buf.AppendTo(make([]byte, 0, 16))
	if err != nil || !bytes.Equal(out, val) {
		t.Fatalf("AppendTo = %x, %v", out, err)
	}
	cp, err := buf.Bytes()
	if err != nil || !bytes.Equal(cp, val) {
		t.Fatalf("Bytes = %x, %v", cp, err)
	}
	// The copy is detached from the off-heap value.
	cp[0] = 0xAA
	fresh, _ := buf.Bytes()
	if fresh[0] == 0xAA {
		t.Fatal("Bytes returned an aliasing slice")
	}
}

func TestKeyBuffersDuringScan(t *testing.T) {
	_, zc := bufferMap(t)
	for i := uint64(0); i < 20; i++ {
		zc.Put(i, []byte{byte(i)})
	}
	var keys []uint64
	zc.Keys(nil, nil, func(k *OakRBuffer) bool {
		u, err := k.Uint64At(0)
		if err != nil {
			t.Fatalf("key read: %v", err)
		}
		keys = append(keys, u)
		return true
	})
	if len(keys) != 20 || keys[0] != 0 || keys[19] != 19 {
		t.Fatalf("keys = %v", keys)
	}
	count := 0
	zc.Values(nil, nil, func(v *OakRBuffer) bool {
		n, err := v.Len()
		if err != nil || n != 1 {
			t.Fatalf("value len = %d, %v", n, err)
		}
		count++
		return true
	})
	if count != 20 {
		t.Fatalf("values visited %d", count)
	}
}

func TestWBufferAccessors(t *testing.T) {
	_, zc := bufferMap(t)
	zc.Put(1, make([]byte, 16))
	ok, err := zc.ComputeIfPresent(1, func(w OakWBuffer) error {
		if w.Len() != 16 {
			t.Fatalf("WBuffer.Len = %d", w.Len())
		}
		w.PutUint64At(0, 7777)
		if w.Uint64At(0) != 7777 {
			t.Fatal("PutUint64At/Uint64At round trip")
		}
		if err := w.Set([]byte("abc")); err != nil {
			return err
		}
		if w.Len() != 3 {
			t.Fatalf("Len after Set = %d", w.Len())
		}
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("compute: %v %v", ok, err)
	}
	v, _ := zc.Get(1).Bytes()
	if string(v) != "abc" {
		t.Fatalf("value = %q", v)
	}
}

func TestComputeErrorAborts(t *testing.T) {
	_, zc := bufferMap(t)
	zc.Put(1, []byte("orig"))
	boom := bytes.ErrTooLarge // any sentinel
	_, err := zc.ComputeIfPresent(1, func(w OakWBuffer) error {
		return boom
	})
	if err != boom {
		t.Fatalf("compute error = %v; want propagated sentinel", err)
	}
	v, _ := zc.Get(1).Bytes()
	if string(v) != "orig" {
		t.Fatalf("value after failed compute = %q", v)
	}
}

func TestViewTracksResize(t *testing.T) {
	_, zc := bufferMap(t)
	zc.Put(1, []byte("aa"))
	view := zc.Get(1)
	// Grow the value through compute; the old view must observe the new
	// content (views read through, §2.2).
	zc.ComputeIfPresent(1, func(w OakWBuffer) error {
		return w.Set(bytes.Repeat([]byte{'z'}, 300))
	})
	n, err := view.Len()
	if err != nil || n != 300 {
		t.Fatalf("view Len after resize = %d, %v", n, err)
	}
	b, _ := view.ByteAt(299)
	if b != 'z' {
		t.Fatal("view content stale after resize")
	}
}

func TestConcurrentViewReadsDuringWrites(t *testing.T) {
	_, zc := bufferMap(t)
	zc.Put(1, make([]byte, 64))
	view := zc.Get(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer flips the whole buffer between all-zeros and all-ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		val := byte(0)
		for i := 0; i < 3000; i++ {
			val ^= 0xFF
			v := val
			zc.ComputeIfPresent(1, func(w OakWBuffer) error {
				b := w.Bytes()
				for j := range b {
					b[j] = v
				}
				return nil
			})
		}
		close(stop)
	}()
	// Readers must always see a consistent (uniform) buffer: Read holds
	// the value's read lock, so a torn write is a locking bug.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view.Read(func(b []byte) error {
					first := b[0]
					for _, c := range b {
						if c != first {
							t.Error("torn read: buffer not uniform")
							return nil
						}
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
}

func TestKeyReclaimDefault(t *testing.T) {
	// Dead keys are reclaimed through the epoch domain and KeyLeakBytes
	// stays zero.
	m := New[uint64, []byte](Uint64Serializer{}, BytesSerializer{},
		&Options{ChunkCapacity: 32, BlockSize: 1 << 20})
	defer m.Close()
	zc := m.ZC()
	for i := uint64(0); i < 2000; i++ {
		zc.Put(i, make([]byte, 32))
	}
	for i := uint64(0); i < 2000; i++ {
		zc.Remove(i)
	}
	// Churn to force rebalances that collect dead keys.
	for round := 0; round < 100; round++ {
		for i := uint64(0); i < 50; i++ {
			zc.Put(i, make([]byte, 32))
		}
		for i := uint64(0); i < 50; i++ {
			zc.Remove(i)
		}
	}
	if leak := m.Stats().KeyLeakBytes; leak != 0 {
		t.Fatalf("KeyLeakBytes = %d with default key reclamation", leak)
	}
}

func TestKeysValuesStream(t *testing.T) {
	_, zc := bufferMap(t)
	for i := uint64(0); i < 12; i++ {
		zc.Put(i, []byte{byte(i)})
	}
	var views []*OakRBuffer
	sum := uint64(0)
	zc.KeysStream(nil, nil, func(k *OakRBuffer) bool {
		views = append(views, k)
		u, _ := k.Uint64At(0)
		sum += u
		return true
	})
	if sum != 66 { // 0+1+...+11
		t.Fatalf("key sum = %d", sum)
	}
	for i := 1; i < len(views); i++ {
		if views[i] != views[0] {
			t.Fatal("KeysStream must reuse one view")
		}
	}
	total := 0
	zc.ValuesStream(nil, nil, func(v *OakRBuffer) bool {
		b, _ := v.ByteAt(0)
		total += int(b)
		return true
	})
	if total != 66 {
		t.Fatalf("value sum = %d", total)
	}
}
