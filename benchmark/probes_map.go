package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/core"
	"oakmap/sharded"
)

// runProbes runs the whole probe suite and returns its metrics. The
// suite does not depend on the workload of the run: every traced run
// reports every layer, on fixtures shaped like the workload each layer's
// metric is meant to explain (point-read for the read path, write-churn
// for the write path, server-mixed for sharded and server).
func runProbes(seed uint64, cfg runConfig, budget time.Duration, notes map[string]float64) (metricSet, error) {
	p := &probes{seed: seed, budget: budget, out: metricSet{}, notes: notes}
	pr := cfg.scaled(findSpec("point-read"))
	wc := cfg.scaled(findSpec("write-churn"))
	sm := cfg.scaled(findSpec("server-mixed"))

	steps := []struct {
		name string
		run  func() error
	}{
		{"arena", func() error { return p.arenaProbes(wc) }},
		{"epoch", func() error { p.epochProbes(); return nil }},
		{"vheader", func() error { return p.headerProbes(wc) }},
		{"core write path", func() error { return p.coreWriteProbes(wc) }},
		{"core read path and shadow pipeline", func() error { return p.coreReadProbes(pr) }},
		{"sharded", func() error { return p.shardedProbes(sm) }},
		{"oakmap", func() error { return p.facadeProbes(pr, wc) }},
		{"server", func() error { return p.serverProbes(sm) }},
	}
	for _, st := range steps {
		stop := watchdog("probe group "+st.name, 30*time.Second+40*budget)
		err := st.run()
		stop()
		if err != nil {
			return nil, fmt.Errorf("probes: %s: %w", st.name, err)
		}
		runtime.GC() // the group's fixtures, before the next group is timed
	}

	v := p.v
	p.set("core.self_get_ns", v("core.get_ns")-v("epoch.pin_unpin_ns")-v("skiplist.floor_ns")-v("chunk.lookup_ns"))
	p.set("core.self_put_ns", v("core.put_insert_ns")-v("epoch.pin_unpin_ns")-v("skiplist.floor_small_ns")-
		2*v("arena.write_ns")-v("vheader.alloc_ns")-v("chunk.insert_ns"))
	p.set("oakmap.self_get_ns", v("oakmap.zc_get_ns")-v("core.get_ns")-v("vheader.read_lock_pair_ns"))
	p.set("sharded.merge_self_ns_per_entry", v("sharded.merge_ns_per_entry")-v("core.cursor_next_ns"))
	p.set("server.self_get_ns", v("server.get_ns")-p.zcGetOnServerMap)
	return p.out, nil
}

// ingest feeds the spec's data set to put in the seeded random order from
// every worker: the paper's Fig. 3 ingestion stage.
func ingest(s *spec, seed uint64, put func(key, val []byte) (bool, error)) error {
	perm := permutation(s.keys, newRNG(seed, 1<<32))
	nw := numWorkers()
	errs := make([]error, nw)
	pair(nw, 1, func(w int) {
		key, val := newKey(), make([]byte, s.valMax)
		for i := w; i < len(perm); i += nw {
			idx := uint64(perm[i])
			setKey(key, idx)
			v := val[:initialLen(s, seed, idx)]
			fillValue(v, idx, 0)
			if ok, err := put(key, v); err != nil || !ok {
				errs[w] = fmt.Errorf("ingest key %d: inserted=%v err=%v", idx, ok, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func newCore(s *spec, seed uint64) (*core.Map, error) {
	m := core.New(&core.Options{Pool: arena.NewPool(blockSize, 0)})
	if err := ingest(s, seed, m.PutIfAbsent); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// coreReadProbes times core.Map's read side on a point-read-shaped map,
// then the shadow pipeline laid out with that map's chunk count.
func (p *probes) coreReadProbes(s *spec) error {
	m, err := newCore(s, p.seed)
	if err != nil {
		return err
	}
	numChunks := m.NumChunks()
	err = p.coreReads(m, s)
	m.Close()
	if err != nil {
		return err
	}
	sh, err := buildShadow(s, p.seed, numChunks)
	if err != nil {
		return err
	}
	defer sh.alloc.Close()
	if err := p.getPipeline(sh, s); err != nil {
		return err
	}
	return p.chunkProbes(sh, s)
}

func (p *probes) coreReads(m *core.Map, s *spec) error {
	r := newRNG(p.seed, 9<<32)
	b := newKeyBatch()
	uniform := func() { b.fill(func() uint64 { return r.intn(s.keys) }) }
	bad := 0
	ns := timeStages(p.budget, noLimit, probeBatch, uniform, func() {
		for i := 0; i < probeBatch; i++ {
			if _, ok := m.Get(b.key(i)); !ok {
				bad++
			}
		}
	})
	p.set("core.get_ns", ns[0])

	lo, hi := newKey(), newKey()
	n := 0
	count := func(uint64, core.ValueHandle) bool { n++; return n < scanLen }
	full := func() {
		if n != scanLen {
			bad++
		}
		n = 0
	}
	ns = timeStages(3*p.budget, noLimit, scanLen,
		func() {
			start := r.intn(s.keys - scanLen + 1)
			setKey(lo, start)
			setKey(hi, start+scanLen)
		},
		func() { m.Ascend(lo, nil, count); full() },
		func() { m.Descend(nil, hi, count); full() },
		func() {
			cur := m.NewCursor(lo, nil, false)
			for ; n < scanLen; n++ {
				if _, _, ok := cur.Next(); !ok {
					break
				}
			}
			full()
		})
	p.set("core.ascend_ns_per_entry", ns[0])
	p.set("core.descend_ns_per_entry", ns[1])
	p.set("core.cursor_next_ns", ns[2])

	// MVCC, with the map otherwise idle.
	const cycles = 64
	ns = timeStages(p.budget, noLimit, cycles, nil, func() {
		for i := 0; i < cycles; i++ {
			sn := m.BeginSnapshot()
			m.StabilizeSnapshot(sn)
			m.EndSnapshot(sn)
		}
	})
	p.set("core.snapshot_begin_end_us", ns[0]/1e3)

	sn := m.BeginSnapshot()
	m.StabilizeSnapshot(sn)
	dst := make([]byte, 0, s.valMax)
	ns = timeStages(p.budget, noLimit, probeBatch, uniform, func() {
		for i := 0; i < probeBatch; i++ {
			v, ok := m.SnapGet(sn, b.key(i), dst[:0])
			if !ok || !checkStamp(v, b.idx[i], s.valMin, s.valMax) {
				bad++
			}
		}
	})
	m.EndSnapshot(sn)
	p.set("core.snap_get_ns", ns[0])

	const batchKeys, batches = 16, 64
	ops := make([]core.BatchOp, batchKeys)
	vals := make([]byte, batchKeys*s.valMax)
	var applyErr error
	ns = timeStages(p.budget, noLimit, batchKeys*batches, uniform, func() {
		for k := 0; k < batches; k++ {
			for i := range ops {
				j := k*batchKeys + i
				v := vals[i*s.valMax:][:s.valMax]
				fillValue(v, b.idx[j], uint64(k))
				ops[i] = core.BatchOp{Key: b.key(j), Val: v}
			}
			if err := m.ApplyBatch(ops); err != nil {
				applyErr = err
			}
		}
	})
	p.set("core.apply_batch_ns_per_key", ns[0])
	if applyErr != nil {
		return fmt.Errorf("ApplyBatch: %w", applyErr)
	}
	if bad != 0 {
		return fmt.Errorf("core read probes: %d wrong results", bad)
	}
	return nil
}

// coreWriteProbes times core.Map's write side on a write-churn-shaped
// map: zipfian keys, values of 64-2048 bytes.
func (p *probes) coreWriteProbes(s *spec) error {
	m, err := newCore(s, p.seed)
	if err != nil {
		return err
	}
	defer m.Close()
	p.smallIndex(s, m.NumChunks())

	lens := make([]int, s.keys) // current value length per key
	for i := range lens {
		lens[i] = initialLen(s, p.seed, uint64(i))
	}
	r := newRNG(p.seed, 10<<32)
	z := newZipf(s.keys, s.theta)
	b := newKeyBatch()
	hot := func() { b.fill(func() uint64 { return z.index(&r) }) }
	slab := make([]byte, probeBatch*s.valMax)
	var vals [probeBatch][]byte
	stamp := func(i, n int) { // value i of the batch, n bytes
		vals[i] = slab[i*s.valMax:][:n]
		fillValue(vals[i], b.idx[i], 1)
	}
	bad := 0
	put := func() {
		for i := 0; i < probeBatch; i++ {
			if m.Put(b.key(i), vals[i]) != nil {
				bad++
			}
		}
	}

	ns := timeStages(p.budget, noLimit, probeBatch, func() {
		hot()
		for i := range vals {
			stamp(i, lens[b.idx[i]])
		}
	}, put)
	p.set("core.put_overwrite_ns", ns[0])

	ns = timeStages(p.budget, noLimit, probeBatch, func() {
		hot()
		for i := range vals {
			u := r.next()
			n := s.valLen(u)
			if n == lens[b.idx[i]] {
				n = s.valLen(u + 1)
			}
			stamp(i, n)
			lens[b.idx[i]] = n // a key drawn twice ends at its last length
		}
	}, put)
	p.set("core.put_resize_ns", ns[0])

	// Remove then re-insert a batch of distinct keys: 97 is coprime with
	// the key count, so consecutive multiples never repeat within a batch.
	round := uint64(0)
	ns = timeStages(2*p.budget, noLimit, probeBatch,
		func() {
			i := uint64(0)
			b.fill(func() uint64 { i++; return (round*probeBatch + i) * 97 % s.keys })
			round++
			for i := range vals {
				stamp(i, lens[b.idx[i]])
			}
		},
		func() {
			for i := 0; i < probeBatch; i++ {
				if ok, err := m.Remove(b.key(i)); !ok || err != nil {
					bad++
				}
			}
		},
		put)
	p.set("core.remove_ns", ns[0])
	p.set("core.put_insert_ns", ns[1])

	bump := func(w *core.WBuffer) error {
		v := w.Bytes()
		binary.BigEndian.PutUint64(v[8:], binary.BigEndian.Uint64(v[8:])+1)
		return nil
	}
	ns = timeStages(p.budget, noLimit, probeBatch, hot, func() {
		for i := 0; i < probeBatch; i++ {
			if ok, err := m.ComputeIfPresent(b.key(i), bump); !ok || err != nil {
				bad++
			}
		}
	})
	p.set("core.compute_ns", ns[0])
	if bad != 0 {
		return fmt.Errorf("core write probes: %d operations failed", bad)
	}
	return nil
}

// shardedProbes times the shard router and the merged cursor on a 4-shard
// map shaped like server-mixed's.
func (p *probes) shardedProbes(s *spec) error {
	m := sharded.New(s.shards, &core.Options{Pool: arena.NewPool(blockSize, 0)})
	defer m.Close()
	if err := ingest(s, p.seed, m.PutIfAbsent); err != nil {
		return err
	}
	r := newRNG(p.seed, 11<<32)
	z := newZipf(s.keys, s.theta)
	b := newKeyBatch()
	hot := func() { b.fill(func() uint64 { return z.index(&r) }) }
	val := make([]byte, s.valMax)
	bad, sum := 0, 0
	ns := timeStages(3*p.budget, noLimit, probeBatch, hot,
		func() {
			for i := 0; i < probeBatch; i++ {
				sum += m.ShardIndex(b.key(i))
			}
		},
		func() {
			for i := 0; i < probeBatch; i++ {
				if _, ok := m.Get(b.key(i)); !ok {
					bad++
				}
			}
		},
		func() {
			for i := 0; i < probeBatch; i++ {
				fillValue(val, b.idx[i], 2)
				if m.Put(b.key(i), val) != nil {
					bad++
				}
			}
		})
	p.set("sharded.route_ns", ns[0])
	p.set("sharded.get_ns", ns[1])
	p.set("sharded.put_ns", ns[2])

	const opens = 16
	lo := newKey()
	var cur *sharded.Cursor
	start := func() { setKey(lo, r.intn(s.keys-scanLen+1)) }
	ns = timeStages(p.budget, noLimit, opens, nil, func() {
		for i := 0; i < opens; i++ {
			start()
			cur = m.NewCursor(lo, nil, false)
			if _, _, _, _, ok := cur.Next(); !ok {
				bad++
			}
		}
	})
	p.set("sharded.cursor_open_us", ns[0]/1e3)
	ns = timeStages(p.budget, noLimit, scanLen,
		func() { start(); cur = m.NewCursor(lo, nil, false) },
		func() {
			for i := 0; i < scanLen; i++ {
				if _, _, _, _, ok := cur.Next(); !ok {
					bad++
				}
			}
		})
	p.set("sharded.merge_ns_per_entry", ns[0])
	_ = sum
	if bad != 0 {
		return fmt.Errorf("sharded probes: %d wrong results", bad)
	}
	return nil
}

// mallocs is the process's cumulative heap object count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// facadeProbes times the public oakmap API by replaying the workloads'
// own ops through one of their workers, and measures the two reference
// runs the breakdown residuals compare against.
func (p *probes) facadeProbes(pr, wc *spec) error {
	fm, err := buildMap(pr, p.seed, nil)
	if err != nil {
		return err
	}
	defer fm.Close()
	sess := inprocOver(pr, fm, p.seed+1, 1, nil)
	w := sess.workers[0]
	r := newRNG(p.seed, 12<<32)
	var ops [probeBatch]op
	bad := 0
	draw := func(kind opKind, span uint64) func() {
		return func() {
			for i := range ops {
				ops[i] = op{kind: kind, idx: r.intn(span), vlen: pr.valMax}
			}
		}
	}
	replay := func() {
		for _, o := range ops {
			w.prepare(o)
			if !w.exec(o) {
				bad++
			}
		}
	}
	ns, getMean := timeStagesMean(p.budget, noLimit, probeBatch, draw(opGet, pr.keys), replay)
	p.set("oakmap.zc_get_ns", ns[0])

	key := newKey()
	ns = timeStages(p.budget, noLimit, probeBatch, draw(opGet, pr.keys), func() {
		for _, o := range ops {
			setKey(key, o.idx)
			if v, ok := fm.Get(key); !ok || !checkStamp(v, o.idx, pr.valMin, pr.valMax) {
				bad++
			}
		}
	})
	p.set("oakmap.copy_get_ns", ns[0])

	draw(opGet, pr.keys)()
	replay() // warm the key-buffer pool before counting
	m0 := mallocs()
	replay()
	p.set("oakmap.allocs_per_get", float64(mallocs()-m0)/probeBatch)
	draw(opPut, pr.keys)()
	replay()
	m0 = mallocs()
	replay()
	p.set("oakmap.allocs_per_put", float64(mallocs()-m0)/probeBatch)

	scans := pr.keys - scanLen + 1
	ns = timeStages(2*p.budget, noLimit, scanLen,
		func() { draw(opAscend, scans)(); ops[1].kind = opDescend },
		func() { w.prepare(ops[0]); w.execOK(ops[0], &bad) },
		func() { w.prepare(ops[1]); w.execOK(ops[1], &bad) })
	p.set("oakmap.ascend_stream_ns_per_entry", ns[0])
	p.set("oakmap.descend_stream_ns_per_entry", ns[1])

	ref := summarize(sess.measure(200*time.Millisecond, 1, max(time.Second, 8*p.budget)))
	bad += int(ref.failed)
	p.residual("get", getMean[0], ref.readMean)

	// Write side: the write-class ops of write-churn's own stream.
	fw, err := buildMap(wc, p.seed, nil)
	if err != nil {
		return err
	}
	defer fw.Close()
	wsess := inprocOver(wc, fw, p.seed+1, 1, nil)
	ww := wsess.workers[0]
	slab := make([]byte, probeBatch*wc.valMax)
	var vals [probeBatch][]byte
	ns, putMean := timeStagesMean(2*p.budget, noLimit, probeBatch,
		func() {
			for i := 0; i < probeBatch; {
				o := ww.gen.next()
				if o.kind == opGet {
					continue
				}
				ww.seq++
				vals[i] = slab[i*wc.valMax:][:o.vlen]
				if o.vlen > 0 {
					fillValue(vals[i], o.idx, ww.seq)
				}
				ops[i] = o
				i++
			}
		},
		func() {
			for i, o := range ops {
				setKey(ww.key, o.idx)
				ww.val = vals[i]
				ww.execOK(o, &bad)
			}
		})
	p.set("oakmap.zc_put_ns", ns[0])
	ref = summarize(wsess.measure(200*time.Millisecond, 1, max(time.Second, 8*p.budget)))
	bad += int(ref.failed)
	p.residual("put", putMean[0], ref.writeMean)
	if bad != 0 {
		return fmt.Errorf("oakmap probes: %d operations failed", bad)
	}
	return nil
}

// residual reports how far the probes' mean cost of an op is from the mean
// of the workload's own timed samples at one worker.
func (p *probes) residual(op string, probeMean, workloadMean float64) {
	p.set("breakdown."+op+"_residual_pct", 100*ratio(math.Abs(probeMean-workloadMean), workloadMean))
	p.notes[op+"_probe_mean_ns"] = probeMean
	p.notes[op+"_workload_mean_ns"] = workloadMean
}

// execOK is exec that counts a failure into bad.
func (w *worker) execOK(o op, bad *int) {
	if !w.exec(o) {
		*bad++
	}
}

// serverProbes times oak-server over loopback on a server-mixed-shaped
// map with telemetry attached (for the server-side command latency).
func (p *probes) serverProbes(s *spec) error {
	tel := oakmap.NewTelemetry(nil)
	m, err := buildMap(s, p.seed, tel)
	if err != nil {
		return err
	}
	defer m.Close()
	srv, addr, done, err := startServer(m, tel)
	if err != nil {
		return err
	}
	c, err := dialResp(addr)
	if err != nil {
		_ = stopServer(srv, done) // the dial error is the one to report
		return err
	}
	err = p.serverTimings(s, m, c)
	lat := readTelemetry(tel)[`oak_server_cmd_latency_seconds{cmd="get",quantile="0.5"}`]
	p.set("server.cmd_get_p50_us", lat*1e6)
	c.conn.Close()
	if stopErr := stopServer(srv, done); err == nil {
		err = stopErr
	}
	return err
}

func (p *probes) serverTimings(s *spec, m *byteMap, c *respConn) error {
	z := newZipf(s.keys, s.theta)
	only := func(kind opKind) *pointConn {
		one := *s
		one.mix = [numOpKinds]int{}
		one.mix[kind] = 100
		return newPointConn(c, newOpGen(&one, z, p.seed, 13))
	}
	bad := 0
	var ioErr error
	pipeline := func(pc *pointConn) func() {
		return func() {
			pc.build()
			failed, err := pc.roundTrip()
			bad += failed
			if err != nil {
				ioErr = err
			}
		}
	}
	ping := newFrame([]byte("PING"))
	ns := timeStages(p.budget, noLimit, pipelineDepth, nil, func() {
		for i := 0; i < pipelineDepth; i++ {
			c.out, _ = ping.appendTo(c.out)
		}
		if err := c.flush(); err != nil {
			ioErr = err
			return
		}
		for i := 0; i < pipelineDepth; i++ {
			if err := c.rd.simple("PONG"); err != nil {
				ioErr = err
				return
			}
		}
	})
	p.set("server.ping_ns", ns[0])
	gets := only(opGet)
	ns = timeStages(p.budget, noLimit, pipelineDepth, nil, pipeline(gets))
	p.set("server.get_ns", ns[0])
	ns = timeStages(p.budget, noLimit, pipelineDepth, nil, pipeline(only(opPut)))
	p.set("server.set_ns", ns[0])

	const singles = 64
	val := make([]byte, 0, s.valMax)
	ns = timeStages(p.budget, noLimit, singles, nil, func() {
		for i := 0; i < singles && ioErr == nil; i++ {
			idx := gets.gen.nextIndex()
			var at int
			c.out, at = gets.get.appendTo(c.out)
			setKey(c.out[at+gets.get.args[1]:], idx)
			if ioErr = c.flush(); ioErr != nil {
				return
			}
			v, err := c.rd.bulk(val)
			if err != nil {
				ioErr = err
			} else if !checkStamp(v, idx, s.valMin, s.valMax) {
				bad++
			}
		}
	})
	p.set("server.rtt_depth1_us", ns[0]/1e3)

	pager := newPagerConn(c, s.keys)
	ns = timeStages(p.budget, noLimit, 1, nil, func() {
		c.out = appendCommand(c.out, []byte("SCAN"), pager.cursor, []byte("COUNT"), pager.count)
		if _, ok, err := pager.page(); err != nil {
			ioErr = err
		} else if !ok {
			bad++
		}
	})
	p.set("server.scan_page_us", ns[0]/1e3)

	// The same GETs in process on the same map: what the server adds.
	getSpec := *s
	getSpec.mix = [numOpKinds]int{opGet: 100}
	w := inprocOver(&getSpec, m, p.seed, 1, nil).workers[0]
	ns = timeStages(p.budget, noLimit, probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			o := w.gen.next()
			w.prepare(o)
			w.execOK(o, &bad)
		}
	})
	p.zcGetOnServerMap = ns[0]
	if ioErr != nil {
		return fmt.Errorf("server probes: %w", ioErr)
	}
	if bad != 0 {
		return fmt.Errorf("server probes: %d wrong replies", bad)
	}
	return nil
}
