package oakmap_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"log"
	"net"
	"sort"
	"testing"
	"time"

	"oakmap"
	"oakmap/internal/faultpoint"
	"oakmap/internal/server"
)

// TestEveryFaultPointIsHit arms every registered fault point with a
// counting hook, drives a small workload through the facade and the
// server, and fails naming each point that saw no hit. A point nothing
// reaches is a dead chaos hook: the window it guarded is gone, and a
// chaos test arming it checks nothing. This binary links every package
// that declares points, so every declared point is in the registry.
func TestEveryFaultPointIsHit(t *testing.T) {
	faultpoint.ArmAll(faultpoint.Never())
	t.Cleanup(faultpoint.DisarmAll)

	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{ChunkCapacity: 16, BlockSize: 1 << 20, Shards: 2})
	defer m.Close()
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	val := func(i, n int) []byte { return bytes.Repeat([]byte{byte(i)}, n) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Inserts that split the small chunks, overwrites, computes and
	// removes.
	const n = 512
	for i := 0; i < n; i++ {
		_, _, err := m.Put(key(i), val(i, 24))
		must(err)
	}
	for i := 0; i < n; i += 2 {
		_, _, err := m.Put(key(i), val(i, 40))
		must(err)
		_, err = m.ComputeIfPresent(key(i+1), func(v []byte) []byte { return v })
		must(err)
	}
	for i := 0; i < n; i += 3 {
		_, _, err := m.Remove(key(i))
		must(err)
		_, _, err = m.PutIfAbsent(key(i), val(i, 8))
		must(err)
	}
	// Both merged scan directions.
	m.Range(nil, nil, func(k, v []byte) bool { return true })
	m.RangeDescending(nil, nil, func(k, v []byte) bool { return true })

	// Values above the size classes live on the large-span list. Each
	// overwrite of one key with a larger value carves the next adjacent
	// span, so freeing them coalesces, and the large value after Quiesce
	// scans the list.
	for i := 0; i < 4; i++ {
		_, _, err := m.Put(key(n), val(i, (10+i)<<10))
		must(err)
	}
	_, _, err := m.Remove(key(n))
	must(err)

	// Overwrites under an open snapshot, one batch, then a snapshot close
	// and Quiesce, which advance the epochs and drain their limbo lists.
	sn := m.Snapshot()
	for i := 1; i < n; i += 2 {
		_, _, err := m.Put(key(i), val(i, 32))
		must(err)
	}
	must(m.ApplyBatch([]oakmap.Op[[]byte, []byte]{
		{Key: key(1), Value: val(1, 16)},
		{Key: key(3), Delete: true},
	}))
	sn.Close()
	m.Quiesce()
	_, _, err = m.Put(key(n), val(0, 10<<10))
	must(err)
	// Small values now pop the freed, larger spans and re-park the rest.
	for i := 0; i < n; i += 2 {
		_, _, err := m.Put(key(i), val(i, 16))
		must(err)
	}

	// One command through oak-server.
	s := server.New(m, server.Config{Logger: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	cl, err := server.Dial(ln.Addr().String(), 2*time.Second)
	must(err)
	defer cl.Close()
	if r, err := cl.DoStrings("GET", "k"); err != nil {
		t.Fatalf("GET: %v (%v)", err, r)
	}

	var dead []string
	for name, c := range faultpoint.Counters() {
		if c.Hits == 0 {
			dead = append(dead, name)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Fatalf("fault points never hit (dead chaos hooks): %v", dead)
	}
}
