package sharded

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"oakmap/internal/core"
	"oakmap/internal/epoch"
	"oakmap/internal/faultpoint"
)

func disarmOnExit(t *testing.T) {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
}

// TestChaosShardedScan drives merged scans while every layer underneath
// is being shaken: per-shard rebalances and epoch advance/drain are
// stretched by pausing hooks, and the sharding layer's own points
// (shard/route, shard/scan-rotate) jitter the routing and the merge's
// shard-rotation moments. Through all of it the scans must stay globally
// sorted, duplicate-free, and complete over the resident key set.
func TestChaosShardedScan(t *testing.T) {
	disarmOnExit(t)

	FpRoute.Arm(faultpoint.WithProb(0.05, 11))
	FpScanRotate.Arm(faultpoint.Delayed(5*time.Microsecond, faultpoint.WithProb(0.2, 12)))
	for i, p := range []*faultpoint.Point{
		core.FpRebalanceFreeze, core.FpRebalanceSplit, core.FpRebalanceIndex,
	} {
		p.Arm(faultpoint.Delayed(10*time.Microsecond, faultpoint.WithProb(0.3, uint64(20+i))))
	}
	for i, p := range []*faultpoint.Point{epoch.FpAdvance, epoch.FpDrain} {
		p.Arm(faultpoint.Delayed(5*time.Microsecond, faultpoint.WithProb(0.2, uint64(30+i))))
	}

	m := newTestSharded(t, 4, 16)
	// Residents (i ≡ 0 mod 4) are inserted up front and never touched:
	// every scan must yield each exactly once. Odd keys churn.
	const span = 512
	var residents [][]byte
	for i := 0; i < span; i += 4 {
		if err := m.Put(ik(i), iv(i)); err != nil {
			t.Fatal(err)
		}
		residents = append(residents, ik(i))
	}

	var writerWg, scanWg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: insert/remove churn keys, forcing rebalances (tiny
	// chunks) and reclamation traffic in every shard.
	for w := 0; w < 3; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := 1 + 2*int(rng.Uint64()%(span/2))
				if rng.Uint64()%2 == 0 {
					m.Put(ik(i), iv(i))
				} else {
					m.Remove(ik(i))
				}
			}
		}(w)
	}
	// The churn stays below a shard's retire threshold, so nothing else
	// advances the epochs: drive them under the merged scans. Quiesce
	// advances only a domain with retired items waiting.
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Quiesce()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Scanners: full merged ascends and descends under fire.
	scanErr := make(chan string, 32)
	for s := 0; s < 2; s++ {
		scanWg.Add(1)
		go func(s int) {
			defer scanWg.Done()
			desc := s%2 == 1
			// Six passes, and more until the Quiesce loop has run an epoch
			// advance under the scans. A scanner stops at the first pass
			// that reports an error, so it sends at most two messages.
			failed := false
			report := func(msg string) {
				scanErr <- msg
				failed = true
			}
			for pass := 0; !failed && (pass < 6 || (epoch.FpAdvance.Hits() == 0 && pass < 600)); pass++ {
				var prev []byte
				seen := make(map[string]bool)
				gotResidents := 0
				scan := m.Ascend
				if desc {
					scan = m.Descend
				}
				scan(nil, nil, func(src *core.Map, key []byte, kr uint64, h core.ValueHandle) bool {
					if prev != nil {
						c := bytes.Compare(prev, key)
						if desc {
							c = -c
						}
						if c >= 0 {
							report("scan out of order or duplicated under chaos")
							return false
						}
					}
					prev = append(prev[:0], key...)
					ks := string(key)
					if seen[ks] {
						report("duplicate key under chaos")
						return false
					}
					seen[ks] = true
					if v := keyInt(key); v%4 == 0 && v < span {
						gotResidents++
					}
					return true
				})
				if gotResidents != len(residents) {
					report("scan missed resident keys under chaos")
				}
			}
		}(s)
	}

	// Scanners run at most 600 passes and stop at their first error;
	// writers churn until the scanners are done. scanErr holds every
	// message two scanners can send, so scanners never block reporting.
	scanWg.Wait()
	close(stop)
	writerWg.Wait()
	select {
	case msg := <-scanErr:
		t.Fatal(msg)
	default:
	}

	// The injection must have been load-bearing.
	if FpRoute.Hits() == 0 {
		t.Fatal("shard/route never hit: routing not exercised")
	}
	if FpScanRotate.Hits() == 0 {
		t.Fatal("shard/scan-rotate never hit: merged scans never rotated shards")
	}
	if core.FpRebalanceFreeze.Hits() == 0 {
		t.Fatal("rebalance chaos never hit: churn not load-bearing")
	}
	if epoch.FpAdvance.Hits() == 0 {
		t.Fatal("epoch chaos never hit")
	}
	t.Logf("chaos: route=%d rotate=%d rebalance=%d epoch=%d",
		FpRoute.Hits(), FpScanRotate.Hits(),
		core.FpRebalanceFreeze.Hits(), epoch.FpAdvance.Hits())
}
