package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oakmap"
)

const (
	scanLen = 1000 // entries per in-process scan
	// blockSize gives every benchmark map a private pool of 1 MiB blocks,
	// so Footprint() resolves 1 MiB. With the default 100 MB blocks the
	// off-heap ratio of a 115 MB data set could only read 1.7 or 2.6.
	blockSize = 1 << 20
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median, the last set-up is the one measured on.
	setupReps  = 3
	numWindows = 5
)

// spec is one workload: data set, key distribution and op mix.
type spec struct {
	name           string
	why            string
	keys           uint64
	shards         int // 0 = plain map
	valMin, valMax int
	theta          float64 // 0 = uniform keys
	mix            [numOpKinds]int
	server         bool   // drive the map through internal/server over loopback
	sampleEvery    uint64 // time every n-th op
}

// churns reports whether ops add or remove keys, so a get may miss.
func (s *spec) churns() bool { return s.mix[opRemove] > 0 }

var workloads = []*spec{
	{
		name: "point-read",
		why:  "1M keys x 128 B, uniform, 95% get / 5% same-size put: index descent, chunk search, header read-lock and epoch pin do the work; the arena allocates nothing",
		keys: 1_000_000, valMin: 128, valMax: 128,
		mix:         [numOpKinds]int{opGet: 95, opPut: 5},
		sampleEvery: 8,
	},
	{
		name: "write-churn",
		why:  "100k-key range, zipf 0.99, values 64-2048 B in six power-of-two sizes, 40% put / 20% putIfAbsent / 20% remove / 10% compute / 10% get: arena alloc/free, epoch retire, header write-locks, chunk insert and rebalance dominate",
		keys: 100_000, valMin: 64, valMax: 2048, theta: 0.99,
		mix:         [numOpKinds]int{opPut: 40, opPutIfAbsent: 20, opRemove: 20, opCompute: 10, opGet: 10},
		sampleEvery: 8,
	},
	{
		name: "scan-plain",
		why:  "1M keys x 128 B, 45% ascending / 45% descending 1000-entry stream scans from uniform starts, 10% put under the scanners: cursor, chunk walk, descend stack and per-entry views dominate",
		keys: 1_000_000, valMin: 128, valMax: 128,
		mix:         [numOpKinds]int{opAscend: 45, opDescend: 45, opPut: 10},
		sampleEvery: 1,
	},
	{
		name: "server-mixed",
		why:  "oak-server over loopback on a 4-shard map of 200k keys: 16-deep GET/SET/MGET pipelines on one connection, SCAN COUNT 256 paging on another: RESP codec, dispatch, socket flushes, shard router and merge do the work",
		keys: 200_000, shards: 4, valMin: 128, valMax: 128, theta: 0.99,
		mix:         [numOpKinds]int{opGet: 60, opPut: 30, opMGet: 10},
		server:      true,
		sampleEvery: 1,
	},
}

func findSpec(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

// numWorkers is the closed-loop client count: goroutines in process,
// connections against the server.
func numWorkers() int { return min(2, runtime.NumCPU()) }

type byteMap = oakmap.Map[[]byte, []byte]

// buildMap constructs the workload's map and ingests its data set
// through ZC().PutIfAbsent.
func buildMap(s *spec, seed uint64, tel *oakmap.Telemetry) (*byteMap, error) {
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{}, &oakmap.Options{
		BlockSize: blockSize,
		Shards:    s.shards,
		Telemetry: tel,
	})
	if err := ingest(s, seed, m.ZC().PutIfAbsent); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// valLen maps a random draw to a value length: valMin doubled zero or
// more times, up to valMax. Powers of two are the arena's own size
// classes, so a freed value's span fits the next request of its size.
// With lengths uniform over every byte count the allocator spends its
// time in its rescue path (arena.Compact sorts every free span each time
// the bump block runs out): write-churn then runs 20-50x slower and its
// throughput wanders by a factor of two within a run, which no bound can
// gate. arena.alloc_free_ns keeps that size mix, so the cost stays
// visible in the per-layer breakdown.
func (s *spec) valLen(u uint64) int {
	steps := uint64(bits.Len(uint(s.valMax / s.valMin)))
	return s.valMin << (u % steps)
}

// initialLen is the ingested length of key idx's value.
func initialLen(s *spec, seed, idx uint64) int { return s.valLen(mix64(idx ^ seed)) }

// session is one set-up workload that can be measured in windows and
// then closed with the end-of-run gates.
type session interface {
	// measure runs the closed loop: warm-up, then n windows of win each.
	measure(warm time.Duration, n int, win time.Duration) []window
	// finish quiesces, runs the correctness and liveness gates and reads
	// the end-of-run figures.
	finish() (endState, error)
	// close releases the map (and server); it is all a discarded set-up
	// needs.
	close()
}

func newSession(s *spec, seed uint64, workers int, tel *oakmap.Telemetry) (session, error) {
	if s.server {
		return newServerSession(s, seed, tel)
	}
	return newInproc(s, seed, workers, tel)
}

// window is what one timed window measured.
type window struct {
	seconds                         float64
	ops, entries, attempted, failed uint64
	allocBytes                      uint64   // Go-heap bytes allocated during the window
	read, write                     []uint32 // ns samples of both classes, sorted
	dropped                         uint64   // samples that did not fit the buffer
}

// endState is read once at the end of a run, after Quiesce().
type endState struct {
	stats     oakmap.Stats
	userBytes int64              // Σ len(key)+len(value) of live entries
	heapInuse uint64             // HeapInuse after a forced GC, map still open
	telemetry map[string]float64 // the traced map's counters; nil when untraced
}

// control publishes the current phase to the workers.
type control struct{ phase atomic.Int32 }

const (
	phaseWarm = -1
	phaseStop = math.MaxInt32
)

// winCount is one worker's counts in one window.
type winCount struct{ ops, entries, attempted, failed uint64 }

// sampleBuf holds one worker's raw latency samples of one class for a
// whole measure call; mark[i] is where window i starts.
type sampleBuf struct {
	d       []uint32
	mark    []int
	dropped uint64
}

func newSampleBuf(n int, capacity int) sampleBuf {
	return sampleBuf{d: make([]uint32, 0, capacity), mark: make([]int, n+1)}
}

func (b *sampleBuf) add(ns int64) {
	if len(b.d) == cap(b.d) {
		b.dropped++
		return
	}
	b.d = append(b.d, uint32(min(ns, math.MaxUint32)))
}

// sampleCap sizes a buffer for the given measuring time at up to 250k
// timed ops per second per worker, far above what this host reaches.
func sampleCap(n int, win time.Duration) int {
	return int(float64(n)*win.Seconds()*250_000) + 1<<12
}

// recorder is the per-goroutine measuring state shared by the in-process
// workers and the server connections.
type recorder struct {
	cur         int32
	counts      []winCount
	read, write sampleBuf
}

func (r *recorder) reset(n int, win time.Duration) {
	r.cur = phaseWarm
	r.counts = make([]winCount, n)
	r.read = newSampleBuf(n, sampleCap(n, win))
	r.write = newSampleBuf(n, sampleCap(n, win))
}

// sync follows ctl to its current phase and reports whether that phase is
// the end of the measure call.
func (r *recorder) sync(ctl *control) (stop bool) {
	r.enter(ctl.phase.Load())
	return r.cur == phaseStop
}

// enter moves the recorder to phase p, marking where p's samples start
// (and those of any window the goroutine slept through).
func (r *recorder) enter(p int32) {
	if p == r.cur {
		return
	}
	n := int32(len(r.counts))
	from := max(r.cur+1, 0)
	to := min(p, n)
	for i := from; i <= to; i++ {
		r.read.mark[i] = len(r.read.d)
		r.write.mark[i] = len(r.write.d)
	}
	r.cur = p
}

// client is one closed-loop goroutine of a session: an in-process worker
// or a server connection.
type client interface {
	// loop issues ops until ctl says stop, recording into record().
	loop(ctl *control)
	record() *recorder
}

// runWindows runs every client through the phases and assembles what
// their recorders collected.
func runWindows(warm time.Duration, n int, win time.Duration, clients ...client) []window {
	var (
		ctl  control
		wg   sync.WaitGroup
		recs []*recorder
	)
	ctl.phase.Store(phaseWarm)
	for _, c := range clients {
		c.record().reset(n, win)
		recs = append(recs, c.record())
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			c.loop(&ctl)
		}(c)
	}
	time.Sleep(warm)
	bounds := make([]time.Time, n+1)
	allocs := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		allocs[i] = heapAllocBytes()
		bounds[i] = time.Now()
		ctl.phase.Store(int32(i))
		time.Sleep(win)
	}
	ctl.phase.Store(phaseStop)
	bounds[n] = time.Now()
	allocs[n] = heapAllocBytes()
	wg.Wait()

	out := make([]window, n)
	for i := range out {
		w := &out[i]
		w.seconds = bounds[i+1].Sub(bounds[i]).Seconds()
		w.allocBytes = allocs[i+1] - allocs[i]
		for _, r := range recs {
			c := r.counts[i]
			w.ops += c.ops
			w.entries += c.entries
			w.attempted += c.attempted
			w.failed += c.failed
			w.read = append(w.read, r.read.d[r.read.mark[i]:r.read.mark[i+1]]...)
			w.write = append(w.write, r.write.d[r.write.mark[i]:r.write.mark[i+1]]...)
		}
		slices.Sort(w.read)
		slices.Sort(w.write)
	}
	if n > 0 { // a full buffer drops the tail of the call: charge the last window
		for _, r := range recs {
			out[n-1].dropped += r.read.dropped + r.write.dropped
		}
	}
	return out
}

var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes reads the cumulative Go-heap allocation counter without
// stopping the world.
func heapAllocBytes() uint64 {
	metrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

// inproc is a session that calls the map from worker goroutines.
type inproc struct {
	spec    *spec
	m       *byteMap
	tel     *oakmap.Telemetry
	workers []*worker
}

func newInproc(s *spec, seed uint64, workers int, tel *oakmap.Telemetry) (*inproc, error) {
	m, err := buildMap(s, seed, tel)
	if err != nil {
		return nil, err
	}
	return inprocOver(s, m, seed, workers, tel), nil
}

// inprocOver makes a session over an already ingested map; the probes
// use it to replay a workload's op stream on their fixtures.
func inprocOver(s *spec, m *byteMap, seed uint64, workers int, tel *oakmap.Telemetry) *inproc {
	var z *zipf
	if s.theta > 0 {
		z = newZipf(s.keys, s.theta)
	}
	p := &inproc{spec: s, m: m, tel: tel}
	for i := 0; i < workers; i++ {
		p.workers = append(p.workers, newWorker(p, i, newOpGen(s, z, seed, uint64(i))))
	}
	return p
}

func (p *inproc) measure(warm time.Duration, n int, win time.Duration) []window {
	clients := make([]client, len(p.workers))
	for i, w := range p.workers {
		clients[i] = w
	}
	return runWindows(warm, n, win, clients...)
}

func (p *inproc) close() {
	if p.m != nil {
		p.m.Close()
		p.m = nil
	}
}

func (p *inproc) finish() (endState, error) {
	for _, w := range p.workers {
		w.rec = recorder{} // drop the sample buffers before reading the heap
	}
	return endGates(p.spec, p.m, p.tel)
}

// endGates is the end-of-run check shared by both session kinds: after
// Quiesce() the counters must be mutually consistent, no key space may
// have leaked, Len() must be plausible, and a full scan must find every
// entry well-formed and in strict order.
func endGates(s *spec, m *byteMap, tel *oakmap.Telemetry) (endState, error) {
	var e endState
	if !m.Quiesce() {
		return e, errors.New("end gate: Quiesce() did not drain the limbo")
	}
	st, ok := m.StatsConsistent()
	if !ok {
		return e, errors.New("end gate: StatsConsistent() could not settle")
	}
	e.stats = st
	if st.KeyLeakBytes != 0 {
		return e, fmt.Errorf("end gate: KeyLeakBytes = %d, want 0", st.KeyLeakBytes)
	}
	if s.churns() {
		if st.Len <= 0 || uint64(st.Len) > s.keys {
			return e, fmt.Errorf("end gate: Len() = %d, want in (0, %d]", st.Len, s.keys)
		}
	} else if uint64(st.Len) != s.keys {
		return e, fmt.Errorf("end gate: Len() = %d, want %d", st.Len, s.keys)
	}

	var (
		count   int
		prev    uint64
		scanErr error
		idx     uint64
	)
	keyFn := func(k []byte) error {
		if !validKey(k) {
			return fmt.Errorf("malformed key %q", k)
		}
		idx = keyIndex(k)
		if count > 0 && idx <= prev {
			return fmt.Errorf("key %d after %d: not strictly ascending", idx, prev)
		}
		if idx >= s.keys {
			return fmt.Errorf("key %d out of bounds", idx)
		}
		e.userBytes += int64(len(k))
		return nil
	}
	valFn := func(v []byte) error {
		if !checkValue(v, idx, s.valMin, s.valMax) {
			return fmt.Errorf("key %d: bad value of %d bytes", idx, len(v))
		}
		e.userBytes += int64(len(v))
		return nil
	}
	m.ZC().AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		if scanErr = k.Read(keyFn); scanErr == nil {
			scanErr = v.Read(valFn)
		}
		prev = idx
		count++
		return scanErr == nil
	})
	if scanErr != nil {
		return e, fmt.Errorf("end gate: final scan: %w", scanErr)
	}
	if count != st.Len {
		return e, fmt.Errorf("end gate: final scan found %d entries, Len() = %d", count, st.Len)
	}

	if tel != nil {
		e.telemetry = readTelemetry(tel)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.heapInuse = ms.HeapInuse
	return e, nil
}

// worker is one closed-loop client goroutine of an in-process workload.
// Everything an op needs is preallocated here, so the benchmark itself
// allocates nothing in the timed loop.
type worker struct {
	p   *inproc
	id  uint64
	zc  oakmap.ZeroCopyMap[[]byte, []byte]
	gen *opGen
	rec recorder

	key, hi, buf []byte
	val          []byte // the value the next put writes: buf[:vlen], or a probe's slab slice
	seq, reads   uint64

	// state the preallocated callbacks read and write
	wantIdx  uint64
	full     bool
	bad      bool
	scanStep uint64 // +1 or -1 (two's complement)
	scanN    int

	readFn    func([]byte) error
	keyFn     func([]byte) error
	computeFn func(oakmap.OakWBuffer) error
	scanFn    func(k, v *oakmap.OakRBuffer) bool
}

func newWorker(p *inproc, id int, gen *opGen) *worker {
	w := &worker{p: p, id: uint64(id), zc: p.m.ZC(), gen: gen,
		key: newKey(), hi: newKey(), buf: make([]byte, p.spec.valMax)}
	w.readFn = w.checkRead
	w.keyFn = w.checkKey
	w.computeFn = w.bump
	w.scanFn = w.scanEntry
	return w
}

// checkRead verifies a value under the read lock: always length and key
// index (the first 16 bytes are read), every byte when w.full.
func (w *worker) checkRead(v []byte) error {
	s := w.p.spec
	if w.full {
		w.bad = w.bad || !checkValue(v, w.wantIdx, s.valMin, s.valMax)
	} else {
		w.bad = w.bad || !checkStamp(v, w.wantIdx, s.valMin, s.valMax)
	}
	return nil
}

func (w *worker) checkKey(k []byte) error {
	w.bad = w.bad || len(k) != keyLen || keyIndex(k) != w.wantIdx
	return nil
}

// bump is the in-place compute: verify the index, increment the counter.
func (w *worker) bump(b oakmap.OakWBuffer) error {
	if b.Len() < stampLen || b.Uint64At(0) != w.wantIdx {
		w.bad = true
		return nil
	}
	b.PutUint64At(8, b.Uint64At(8)+1)
	return nil
}

// scanEntry checks one scanned entry: the key must be exactly the next
// index (strict order, no gap, inside the bounds) and the value its own.
func (w *worker) scanEntry(k, v *oakmap.OakRBuffer) bool {
	if k.Read(w.keyFn) != nil || v.Read(w.readFn) != nil {
		w.bad = true
	}
	w.wantIdx += w.scanStep
	w.scanN++
	return !w.bad && w.scanN < scanLen
}

func (w *worker) record() *recorder { return &w.rec }

func (w *worker) loop(ctl *control) {
	every := w.p.spec.sampleEvery
	for !w.rec.sync(ctl) {
		o := w.gen.next()
		w.seq++
		w.prepare(o)
		record := w.rec.cur >= 0
		if record && w.seq%every == 0 {
			t0 := time.Now()
			ok := w.exec(o)
			d := time.Since(t0)
			if o.kind == opGet || o.kind == opAscend || o.kind == opDescend {
				w.rec.read.add(int64(d))
			} else {
				w.rec.write.add(int64(d))
			}
			w.count(o, ok)
		} else {
			ok := w.exec(o)
			if record {
				w.count(o, ok)
			}
		}
	}
}

func (w *worker) count(o op, ok bool) {
	c := &w.rec.counts[w.rec.cur]
	c.ops++
	c.attempted++
	if !ok {
		c.failed++
	}
	if o.kind == opAscend || o.kind == opDescend {
		c.entries += uint64(w.scanN)
	}
}

// prepare does the client-side work of an op — encoding the key and
// stamping the value — outside the timed region.
func (w *worker) prepare(o op) {
	setKey(w.key, o.idx)
	switch o.kind {
	case opPut, opPutIfAbsent:
		w.val = w.buf[:o.vlen]
		fillValue(w.val, o.idx, w.id<<56|w.seq)
	case opDescend:
		setKey(w.hi, o.idx+scanLen)
	}
}

// exec issues one op and reports whether it succeeded and, for reads,
// returned the right bytes.
func (w *worker) exec(o op) bool {
	s := w.p.spec
	switch o.kind {
	case opGet:
		b := w.zc.Get(w.key)
		if b == nil {
			return s.churns() // a miss is a failure unless keys come and go
		}
		w.reads++
		w.wantIdx, w.full, w.bad = o.idx, w.reads&63 == 0, false
		if err := b.Read(w.readFn); err != nil {
			return s.churns() && errors.Is(err, oakmap.ErrConcurrentModification)
		}
		return !w.bad
	case opPut:
		return w.zc.Put(w.key, w.val) == nil
	case opPutIfAbsent:
		_, err := w.zc.PutIfAbsent(w.key, w.val)
		return err == nil
	case opRemove:
		return w.zc.Remove(w.key) == nil
	case opCompute:
		w.wantIdx, w.bad = o.idx, false
		_, err := w.zc.ComputeIfPresent(w.key, w.computeFn)
		return err == nil && !w.bad
	case opAscend:
		w.wantIdx, w.scanStep, w.scanN, w.full, w.bad = o.idx, 1, 0, false, false
		w.zc.AscendStream(&w.key, nil, w.scanFn)
		return !w.bad && w.scanN == scanLen
	case opDescend:
		w.wantIdx, w.scanStep, w.scanN, w.full, w.bad = o.idx+scanLen-1, ^uint64(0), 0, false, false
		w.zc.DescendStream(nil, &w.hi, w.scanFn)
		return !w.bad && w.scanN == scanLen
	}
	return false
}
