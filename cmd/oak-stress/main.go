// Command oak-stress soak-tests the map: concurrent workers apply a
// configurable operation mix against tracked "resident" keys while a
// validator repeatedly checks ordering, uniqueness, reachability, and
// the atomicity of in-place computes. Violations are collected with
// context and reported at shutdown; the process exits non-zero if any
// occurred. Use it to gain confidence on new hardware or after modifying
// the concurrency core.
//
//	oak-stress -duration 30s -workers 8 -keys 100000
//	oak-stress -chunk 128                    # small chunks: rebalance-heavy
//	oak-stress -faults -seed 7               # with fault injection armed
//	oak-stress -metrics :9090 -progress 5s   # live Prometheus /metrics + stderr summaries
//	oak-stress -shards 8 -zipf 1.2           # hash-sharded map under a skewed key mix
//	oak-stress -snapshots 2 -faults          # MVCC soak: frozen-view validators under churn
//
// With -shards N > 1 the map hash-partitions keys across N independent
// core maps (per-shard arena and epoch domain); validation scans then
// exercise the cross-shard k-way merge, and the shutdown summary breaks
// the leak accounting out per shard. -zipf s > 1 draws worker keys from
// a Zipf(s) distribution instead of uniform, concentrating the churn on
// a few hot keys — with sharding, on a few hot shards.
//
// With -metrics, a Prometheus text endpoint is served at /metrics and
// the expvar JSON snapshot at /debug/vars; -progress prints a periodic
// per-op latency table to stderr. Either flag enables the telemetry
// layer (op histograms, structural gauges, and the flight recorder,
// whose tail is dumped at shutdown).
//
// With -snapshots N > 0, N validator goroutines continuously open MVCC
// snapshots and check the frozen-view invariants: a snapshot's scan is
// ordered and sees every resident, its reads are stable (two reads of
// one key inside one snapshot agree even mid-churn), and the counter
// sum observed by successive snapshots of one validator never goes
// backwards. At shutdown the retained-version store must have drained
// to zero — an MVCC retention leak fails the run.
//
// With -faults, the named fault-injection points (internal/faultpoint)
// fire with seeded probability: allocation failures surface as tolerated
// errors, entry-link CAS and publish losses force the retry paths, and
// the rebalance/value pause points jitter goroutine scheduling. One put
// in 64 then writes a 9 KiB value, so freed spans reach the arena's
// large-span list and its scan window. The hit/fire counters of every
// armed point, zeros included, are printed at shutdown.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	mrand "math/rand" // v1: home of rand.Zipf
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oakmap"
	"oakmap/internal/arena"
	"oakmap/internal/chunk"
	"oakmap/internal/core"
	"oakmap/internal/epoch"
	"oakmap/internal/faultpoint"
	"oakmap/sharded"
)

type stats struct {
	puts, gets, removes, computes, scans, validations atomic.Int64
	snapshots                                         atomic.Int64
	injected                                          atomic.Int64
}

// violations collects invariant failures with context instead of
// aborting on the first one: the run continues (surfacing cascades and
// later, different failures) and everything is reported at shutdown.
type violations struct {
	mu    sync.Mutex
	count int64
	msgs  []string // first maxMsgs, with context
}

const maxMsgs = 50

func (v *violations) reportf(format string, args ...any) {
	v.mu.Lock()
	v.count++
	if len(v.msgs) < maxMsgs {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

func (v *violations) total() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oak-stress: ")
	var (
		duration  = flag.Duration("duration", 10*time.Second, "total run time")
		workers   = flag.Int("workers", 8, "concurrent worker goroutines")
		keys      = flag.Int("keys", 50000, "key range")
		valSize   = flag.Int("valsize", 128, "value size in bytes")
		chunkCap  = flag.Int("chunk", 512, "chunk capacity (small values stress rebalance)")
		faults    = flag.Bool("faults", false, "arm the fault-injection points")
		faultProb = flag.Float64("fault-prob", 0.005, "per-hit firing probability for branch faults")
		seed      = flag.Uint64("seed", 1, "PRNG seed for fault firing (reproducibility)")
		metrics   = flag.String("metrics", "", "serve Prometheus /metrics and expvar /debug/vars on this address (enables telemetry)")
		progress  = flag.Duration("progress", 0, "print a periodic telemetry summary to stderr (enables telemetry)")
		shards    = flag.Int("shards", 0, "hash-shard the map across N core maps (0 or 1 = plain)")
		snapshots = flag.Int("snapshots", 0, "concurrent snapshot validators checking frozen-view invariants (0 = off)")
		zipf      = flag.Float64("zipf", 0, "draw worker keys from Zipf(s) instead of uniform (requires s > 1; 0 = uniform)")
		netAddr   = flag.String("net", "", "drive an oak-server at this address over RESP instead of an in-process map")
	)
	flag.Parse()
	if *zipf != 0 && *zipf <= 1 {
		log.Fatalf("-zipf requires an exponent > 1 (got %g)", *zipf)
	}
	if *netAddr != "" {
		runNet(netConfig{
			addr:     *netAddr,
			duration: *duration,
			workers:  *workers,
			keys:     *keys,
			valSize:  *valSize,
			zipf:     *zipf,
		})
		return
	}

	var tel *oakmap.Telemetry
	if *metrics != "" || *progress > 0 {
		tel = oakmap.NewTelemetry(nil)
	}

	m := oakmap.New[uint64, []byte](oakmap.Uint64Serializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{
			ChunkCapacity: *chunkCap,
			BlockSize:     16 << 20,
			Telemetry:     tel,
			Shards:        *shards,
		})
	defer m.Close()
	zc := m.ZC()

	if *metrics != "" {
		tel.PublishExpvar("oak")
		mux := http.NewServeMux()
		mux.Handle("/metrics", tel.MetricsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		srv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("metrics server: %v", err)
			}
		}()
		defer srv.Close()
		log.Printf("serving /metrics and /debug/vars on %s", *metrics)
	}

	// Residents: keys 0, 10, 20, ... stay in the map for the whole run;
	// every validation pass must see each exactly once, in order.
	// Counter cells: keys 1_000_000_000+i hold 8-byte counters bumped
	// only via atomic computes; their sum is checked at the end.
	const counterBase = 1_000_000_000
	const counters = 16
	residents := *keys / 10
	for i := 0; i < residents; i++ {
		if err := zc.Put(uint64(i*10), make([]byte, *valSize)); err != nil {
			log.Fatalf("seed resident: %v", err) // setup failure, not a violation
		}
	}
	for i := 0; i < counters; i++ {
		if err := zc.Put(uint64(counterBase+i), make([]byte, 8)); err != nil {
			log.Fatalf("seed counter: %v", err)
		}
	}

	var armed []*faultpoint.Point
	if *faults {
		armed = armFaults(*faultProb, *seed)
		defer faultpoint.DisarmAll()
	}

	var st stats
	var viol violations
	var computeTotal atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// tolerate reports whether err is an expected consequence of armed
	// faults rather than a violation.
	tolerate := func(err error) bool {
		if err != nil && *faults && errors.Is(err, arena.ErrInjected) {
			st.injected.Add(1)
			return true
		}
		return false
	}

	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(wseed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(wseed, 0x57e55))
			// Zipf lives in math/rand v1; each worker owns its generator
			// (not safe for concurrent use).
			var zg *mrand.Zipf
			if *zipf > 1 {
				zg = mrand.NewZipf(mrand.New(mrand.NewSource(int64(wseed))),
					*zipf, 1, uint64(*keys-1))
			}
			val := make([]byte, *valSize)
			// With -faults, one put in 64 writes a 9 KiB value: freeing it
			// parks a span of 8 KiB or more on the allocator's large-span
			// list, the only list arena/freelist-scan guards.
			var big []byte
			if *faults {
				big = make([]byte, 9<<10)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var k uint64
				if zg != nil {
					k = zg.Uint64()
				} else {
					k = rng.Uint64() % uint64(*keys)
				}
				if k%10 == 0 {
					k++ // never touch residents destructively
				}
				switch rng.Uint64() % 10 {
				case 0, 1, 2:
					v := val
					if big != nil && rng.Uint64()%64 == 0 {
						v = big
					}
					if err := zc.Put(k, v); err != nil && !tolerate(err) {
						viol.reportf("put(%d): %v", k, err)
					}
					st.puts.Add(1)
				case 3:
					if err := zc.Remove(k); err != nil && !tolerate(err) {
						viol.reportf("remove(%d): %v", k, err)
					}
					st.removes.Add(1)
				case 4:
					c := uint64(counterBase + int(rng.Uint64()%counters))
					ok, err := zc.ComputeIfPresent(c, func(wb oakmap.OakWBuffer) error {
						wb.PutUint64At(0, wb.Uint64At(0)+1)
						return nil
					})
					switch {
					case err != nil && !tolerate(err):
						viol.reportf("compute(%d): %v", c, err)
					case err == nil && !ok:
						viol.reportf("counter %d vanished (compute found no mapping)", c)
					case err == nil:
						computeTotal.Add(1)
					}
					st.computes.Add(1)
				case 5:
					n := 0
					zc.AscendStream(&k, nil, func(kb, vb *oakmap.OakRBuffer) bool {
						n++
						return n < 200
					})
					st.scans.Add(1)
				case 6:
					n := 0
					zc.DescendStream(nil, &k, func(kb, vb *oakmap.OakRBuffer) bool {
						n++
						return n < 200
					})
					st.scans.Add(1)
				default:
					if buf := zc.Get(k); buf != nil {
						buf.Read(func([]byte) error { return nil })
					}
					st.gets.Add(1)
				}
			}
		}(uint64(w + 1))
	}

	// Validator: full-scan invariants while the storm rages.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			validate(zc, residents, &viol)
			st.validations.Add(1)
		}
	}()

	// Snapshot validators: each continuously freezes a view and checks
	// the MVCC contract against it while the storm rages.
	for w := 0; w < *snapshots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSum := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum, ok := snapValidate(m, residents, counters, counterBase, &viol)
				if ok {
					// Counters only grow, and a later snapshot's version is
					// never older: the observed sum must be monotone per
					// validator.
					if lastSum >= 0 && sum < lastSum {
						viol.reportf("SNAPSHOT MONOTONICITY VIOLATION: counter sum went from %d back to %d",
							lastSum, sum)
					}
					lastSum = sum
				}
				st.snapshots.Add(1)
			}
		}()
	}

	if *progress > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					s := m.Stats()
					log.Printf("len=%d chunks=%d rebalances=%d epoch=%d limbo=%d/%dB frag=%.3f",
						s.Len, s.Chunks, s.Rebalances, s.Epoch, s.LimboItems, s.LimboBytes, s.Fragmentation)
					if t := tel.Summary(); t != "" {
						fmt.Fprint(os.Stderr, t)
					}
				}
			}
		}()
	}

	start := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	faultpoint.DisarmAll() // quiesce injection before the final checks

	// Final check: the counters must hold exactly the computes applied.
	var sum int64
	for i := 0; i < counters; i++ {
		buf := zc.Get(uint64(counterBase + i))
		if buf == nil {
			viol.reportf("counter %d missing at shutdown", i)
			continue
		}
		v, err := buf.Uint64At(0)
		if err != nil {
			viol.reportf("counter %d read at shutdown: %v", i, err)
			continue
		}
		sum += int64(v)
	}
	if sum != computeTotal.Load() {
		viol.reportf("ATOMICITY VIOLATION: counters sum to %d, expected %d",
			sum, computeTotal.Load())
	}

	// With every snapshot closed, the retained-version store must be
	// empty: anything left is an MVCC retention leak.
	if *snapshots > 0 {
		if ms := m.Stats(); ms.OpenSnapshots != 0 || ms.RetainedBytes != 0 || ms.RetainedSpans != 0 {
			viol.reportf("SNAPSHOT LEAK: open=%d retained=%dB in %d spans after all snapshots closed",
				ms.OpenSnapshots, ms.RetainedBytes, ms.RetainedSpans)
		}
	}

	s := m.Stats()
	totalOps := st.puts.Load() + st.gets.Load() + st.removes.Load() +
		st.computes.Load() + st.scans.Load()
	verdict := "PASS"
	if viol.total() > 0 {
		verdict = "FAIL"
	}
	fmt.Printf("%s: %d ops in %s (%.0f Kops/s), %d validations, %d violations\n",
		verdict, totalOps, elapsed.Round(time.Millisecond),
		float64(totalOps)/elapsed.Seconds()/1000, st.validations.Load(), viol.total())
	fmt.Printf("  puts=%d gets=%d removes=%d computes=%d scans=%d injected-errors=%d\n",
		st.puts.Load(), st.gets.Load(), st.removes.Load(),
		st.computes.Load(), st.scans.Load(), st.injected.Load())
	if *snapshots > 0 {
		fmt.Printf("  snapshots=%d retained-now=%dB/%d-spans open-now=%d\n",
			st.snapshots.Load(), s.RetainedBytes, s.RetainedSpans, s.OpenSnapshots)
	}
	fmt.Printf("  len=%d chunks=%d rebalances=%d headers=%d footprint=%.1fMB free-spans=%d frag=%.3f\n",
		s.Len, s.Chunks, s.Rebalances, s.HeaderCount, float64(s.Footprint)/(1<<20),
		s.FreeSpans, s.Fragmentation)
	fmt.Printf("  epoch=%d pinned=%d limbo-items=%d limbo-bytes=%d\n",
		s.Epoch, s.PinnedReaders, s.LimboItems, s.LimboBytes)
	if s.Shards > 1 {
		fmt.Printf("  per-shard (len/limbo-bytes/rebalances):")
		for i, ss := range m.ShardStats() {
			fmt.Printf(" %d=%d/%d/%d", i, ss.Len, ss.LimboBytes, ss.Rebalances)
		}
		fmt.Println()
	}
	if *faults {
		printFaultCounters(armed)
	}
	if tel != nil {
		fmt.Printf("  op latency (sampled):\n%s", tel.Summary())
		evs := tel.DumpEvents()
		const tail = 10
		if len(evs) > tail {
			evs = evs[len(evs)-tail:]
		}
		fmt.Printf("  flight recorder (last %d of %d events):\n", len(evs), tel.EventCount())
		for _, ev := range evs {
			fmt.Printf("    %s\n", ev)
		}
	}
	if viol.total() > 0 {
		fmt.Printf("violations (%d total, first %d with context):\n", viol.total(), len(viol.msgs))
		for _, msg := range viol.msgs {
			fmt.Printf("  VIOLATION: %s\n", msg)
		}
		os.Exit(1)
	}
}

// armFaults installs seeded probabilistic hooks on the branch faults and
// scheduling-jitter hooks on the pause points, and returns every point
// it armed.
func armFaults(prob float64, seed uint64) []*faultpoint.Point {
	// link-cas, publish-fail and the install lost-race points divert
	// retry loops: at probability 1 a put would retry forever and the run
	// could never drain. Clamp so the loops always converge.
	retryProb := prob
	if retryProb > 0.9 {
		retryProb = 0.9
		log.Printf("clamping -fault-prob to %.2f for retry-loop faults", retryProb)
	}
	branch := []struct {
		p    *faultpoint.Point
		prob float64
	}{
		{arena.FpAllocFail, prob / 5}, // errors surface to callers: keep rare
		{chunk.FpLinkCAS, retryProb},
		{chunk.FpPublishFail, retryProb},
		// Halved: both sit on one install attempt, after publish-fail.
		{core.FpInstallPublishLost, retryProb / 2},
		{core.FpInstallCASLost, retryProb / 2},
	}
	var armed []*faultpoint.Point
	for i, b := range branch {
		b.p.Arm(faultpoint.WithProb(b.prob, seed+uint64(i)+1))
		armed = append(armed, b.p)
	}
	// Sparse scheduling jitter: every Gosched donates a scheduler quantum
	// to whoever is runnable (on GOMAXPROCS=1, the whole quantum), so keep
	// it rare enough that workers still make progress.
	jitter := faultpoint.Hook{Decide: func(hit int64) bool {
		if hit%64 == 0 {
			runtime.Gosched()
		}
		return false
	}}
	for _, p := range []*faultpoint.Point{
		arena.FpFreeListScan, arena.FpCoalesce, arena.FpClassMigrate,
		core.FpRebalanceFreeze, core.FpRebalanceSplit, core.FpRebalanceIndex,
		core.FpHeaderLock, core.FpDeletedBit, core.FpPutRace,
		epoch.FpAdvance, epoch.FpDrain,
		sharded.FpRoute, sharded.FpScanRotate,
		core.FpMvccRetain, core.FpMvccHorizon,
	} {
		p.Arm(jitter)
		armed = append(armed, p)
	}
	return armed
}

// printFaultCounters prints every armed point, zeros included: a window
// the soak never reached shows as name=0/0.
func printFaultCounters(armed []*faultpoint.Point) {
	fmt.Printf("  fault points (hits/fires):")
	for _, p := range armed {
		fmt.Printf(" %s=%d/%d", p.Name(), p.Hits(), p.Fires())
	}
	fmt.Println()
}

// snapValidate freezes one view and checks the MVCC contract inside
// it: the frozen scan is ordered and complete over the residents, and
// two reads of one counter within the snapshot agree byte-for-byte no
// matter what the writers are doing. Returns the frozen counter sum
// and whether it is trustworthy for the caller's monotonicity check.
func snapValidate(m *oakmap.Map[uint64, []byte], residents, counters, counterBase int, viol *violations) (int64, bool) {
	sn := m.Snapshot()
	defer sn.Close()

	var prev uint64
	first := true
	seenResidents := 0
	ordered := true
	sn.Ascend(nil, nil, func(k uint64, _ []byte) bool {
		if !first && k <= prev {
			viol.reportf("SNAPSHOT ORDER VIOLATION: key %d scanned after %d", k, prev)
			ordered = false
			return false
		}
		prev, first = k, false
		if k%10 == 0 && k < uint64(residents*10) {
			seenResidents++
		}
		return true
	})
	if ordered && seenResidents != residents {
		viol.reportf("SNAPSHOT RESIDENT VIOLATION: frozen view saw %d of %d residents",
			seenResidents, residents)
	}

	var sum int64
	stable := ordered
	for i := 0; i < counters; i++ {
		k := uint64(counterBase + i)
		v1, ok1 := sn.Get(k)
		v2, ok2 := sn.Get(k)
		switch {
		case ok1 != ok2 || (ok1 && !bytes.Equal(v1, v2)):
			viol.reportf("SNAPSHOT STABILITY VIOLATION: counter %d changed within one frozen view", i)
			stable = false
		case !ok1:
			viol.reportf("SNAPSHOT RESIDENT VIOLATION: counter %d missing from frozen view", i)
			stable = false
		default:
			sum += int64(binary.BigEndian.Uint64(v1))
		}
	}
	return sum, stable
}

// validate runs one full-scan invariant pass.
func validate(zc oakmap.ZeroCopyMap[uint64, []byte], residents int, viol *violations) {
	var prev uint64
	first := true
	seenResidents := 0
	var kb [8]byte
	ordered := true
	zc.AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		k.Read(func(b []byte) error { copy(kb[:], b); return nil })
		key := binary.BigEndian.Uint64(kb[:])
		if !first && key <= prev {
			viol.reportf("ORDER VIOLATION: key %d scanned after %d", key, prev)
			ordered = false
			return false
		}
		prev, first = key, false
		if key%10 == 0 && key < uint64(residents*10) {
			seenResidents++
		}
		return true
	})
	if ordered && seenResidents != residents {
		viol.reportf("RESIDENT VIOLATION: saw %d of %d resident keys (last key %d)",
			seenResidents, residents, prev)
	}
}
