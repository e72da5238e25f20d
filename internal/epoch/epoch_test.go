package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oakmap/internal/faultpoint"
)

// collectDomain returns a domain whose frees append into a recording
// slice guarded by mu.
func collectDomain() (*Domain, func() []Retired) {
	var mu sync.Mutex
	var freed []Retired
	d := NewDomain(func(items []Retired) {
		mu.Lock()
		freed = append(freed, items...)
		mu.Unlock()
	})
	return d, func() []Retired {
		mu.Lock()
		defer mu.Unlock()
		return append([]Retired(nil), freed...)
	}
}

func TestRetireDrainsAfterFullCycle(t *testing.T) {
	d, freed := collectDomain()
	d.Retire(Retired{Kind: 1, Val: 42}, 8)
	if got := len(freed()); got != 0 {
		t.Fatalf("freed %d items before any advance", got)
	}
	// Three advances elapse the grace period for epoch-0 retirements.
	for i := 0; i < buckets; i++ {
		if !d.Advance() {
			t.Fatalf("advance %d failed with no pinned readers", i)
		}
	}
	f := freed()
	if len(f) != 1 || f[0].Val != 42 || f[0].Kind != 1 {
		t.Fatalf("freed = %+v; want the one retired item", f)
	}
	if st := d.Stats(); st.LimboItems != 0 || st.LimboBytes != 0 {
		t.Fatalf("limbo not empty after drain: %+v", st)
	}
}

func TestPinBlocksReclamation(t *testing.T) {
	d, freed := collectDomain()
	g := d.Pin()
	d.Retire(Retired{Val: 7}, 8)
	// The pinned reader blocks the second advance (it stays at epoch 0),
	// so the item retired at epoch 0 can never drain.
	d.tryAdvance() // 0→1 may succeed: the reader is at the current epoch
	for i := 0; i < 5; i++ {
		if d.tryAdvance() {
			t.Fatalf("advance %d succeeded past a reader pinned at epoch 0", i)
		}
	}
	if got := len(freed()); got != 0 {
		t.Fatalf("freed %d items while a guard from the retire epoch was pinned", got)
	}
	g.Unpin()
	if !d.Quiesce() {
		t.Fatal("Quiesce failed after the guard unpinned")
	}
	if got := len(freed()); got != 1 {
		t.Fatalf("freed %d items after quiesce; want 1", got)
	}
}

func TestQuiesceEmptiesLimbo(t *testing.T) {
	d, freed := collectDomain()
	for i := uint64(0); i < 100; i++ {
		d.Retire(Retired{Val: i}, 8)
		if i%3 == 0 {
			d.Advance() // spread retirements across epochs/buckets
		}
	}
	if !d.Quiesce() {
		t.Fatal("Quiesce failed with no readers")
	}
	if got := len(freed()); got != 100 {
		t.Fatalf("freed %d items; want 100", got)
	}
	if st := d.Stats(); st.LimboItems != 0 {
		t.Fatalf("LimboItems = %d after quiesce", st.LimboItems)
	}
}

func TestThresholdTriggersAdvance(t *testing.T) {
	d, freed := collectDomain()
	// Without any explicit Advance call, sheer retire volume must cycle
	// the epoch and start draining.
	const n = 2 * DefaultLimboThreshold
	for i := uint64(0); i < n; i++ {
		d.Retire(Retired{Val: i}, 8)
	}
	if got := len(freed()); got == 0 {
		t.Fatalf("no drains after %d retires", n)
	}
	if st := d.Stats(); st.Advances == 0 {
		t.Fatal("no advances recorded")
	}
}

func TestPinSlotReuseAndNesting(t *testing.T) {
	d, _ := collectDomain()
	g1 := d.Pin()
	g2 := d.Pin() // nested pin must get an independent slot
	if g1.s == g2.s {
		t.Fatal("nested pins shared a slot")
	}
	if st := d.Stats(); st.Pinned != 2 {
		t.Fatalf("Pinned = %d; want 2", st.Pinned)
	}
	g2.Unpin()
	g1.Unpin()
	if st := d.Stats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d after unpin; want 0", st.Pinned)
	}
	var zero Guard
	zero.Unpin() // must be a no-op
}

// TestNeverFreeWhileReachable is the core safety property under load:
// concurrent readers "read" resources through a shared table while
// writers unlink and retire them; a freed-while-reachable bug surfaces
// as a read of an item whose free already ran.
func TestNeverFreeWhileReachable(t *testing.T) {
	const items = 1 << 12
	var freedAt [items]atomic.Bool
	d := NewDomain(func(batch []Retired) {
		for _, r := range batch {
			freedAt[r.Val].Store(true)
		}
	})

	var table [items]atomic.Bool // true = linked (reachable)
	for i := range table {
		table[i].Store(true)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := d.Pin()
				i = (i*31 + 7) % items
				if table[i].Load() { // reachable under the pin...
					if freedAt[i].Load() { // ...must imply not freed
						violations.Add(1)
					}
				}
				g.Unpin()
			}
		}(r)
	}
	for i := 0; i < items; i++ {
		if table[i].CompareAndSwap(true, false) { // unlink
			d.Retire(Retired{Val: uint64(i)}, 8)
		}
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d reads of a freed-but-reachable item", v)
	}
	if !d.Quiesce() {
		t.Fatal("final quiesce failed")
	}
	for i := range freedAt {
		if !freedAt[i].Load() {
			t.Fatalf("item %d never freed after quiesce", i)
		}
	}
}

// TestDrainPrecedesPublish pins down the advance ordering that makes
// Retire race-free: the limbo bucket must be privatized while the global
// epoch still reads its pre-advance value. Publishing the new epoch
// first would open a window where a concurrent Retire loads the new
// epoch and appends into the very bucket being drained — freeing the
// resource with zero grace period.
func TestDrainPrecedesPublish(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	d, freed := collectDomain()
	d.Retire(Retired{Val: 1}, 8) // epoch 0 → bucket 0
	if !d.Advance() || !d.Advance() {
		t.Fatal("setup advances failed")
	}
	// global == 2; the next advance drains bucket 0 and publishes 3.
	var epochAtDrain atomic.Uint64
	FpDrain.Arm(faultpoint.Hook{Decide: func(int64) bool {
		epochAtDrain.Store(d.global.Load())
		return false
	}})
	if !d.Advance() {
		t.Fatal("draining advance failed")
	}
	if got := len(freed()); got != 1 {
		t.Fatalf("freed %d items; want 1", got)
	}
	if e := epochAtDrain.Load(); e != 2 {
		t.Fatalf("bucket privatized at global epoch %d; want 2 (drain must precede publish)", e)
	}
}

// TestLateRetireNotFreedByInFlightAdvance parks an advance mid-drain and
// retires a resource into the domain: the late retirement must land in
// the current epoch's bucket, not the one being drained, and must only
// be freed after a full grace cycle.
func TestLateRetireNotFreedByInFlightAdvance(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	d, freed := collectDomain()
	d.Retire(Retired{Val: 1}, 8) // epoch 0 → bucket 0
	if !d.Advance() || !d.Advance() {
		t.Fatal("setup advances failed")
	}
	gate := faultpoint.NewGate()
	FpDrain.Arm(gate.Hook(1))
	done := make(chan bool)
	go func() { done <- d.Advance() }()
	if !gate.WaitArrival(5 * time.Second) {
		t.Fatal("advance never reached the drain point")
	}
	d.Retire(Retired{Val: 2}, 8) // races the in-flight advance
	gate.Open()
	if !<-done {
		t.Fatal("paused advance failed")
	}
	f := freed()
	if len(f) != 1 || f[0].Val != 1 {
		t.Fatalf("freed = %+v; want only the epoch-0 item", f)
	}
	faultpoint.DisarmAll()
	if !d.Quiesce() {
		t.Fatal("quiesce failed")
	}
	if got := len(freed()); got != 2 {
		t.Fatalf("freed %d items after quiesce; want 2", got)
	}
}

// TestPinOverflowWhenSlotsExhausted exhausts every announcement slot and
// checks that further pins land in the overflow counters — still
// blocking reclamation of their epoch — instead of waiting for a slot.
func TestPinOverflowWhenSlotsExhausted(t *testing.T) {
	d, freed := collectDomain()
	const extra = 4
	guards := make([]Guard, slotCount+extra)
	for i := range guards {
		guards[i] = d.Pin()
	}
	over := 0
	for _, g := range guards {
		if g.s == nil {
			over++
		}
	}
	if over != extra {
		t.Fatalf("%d overflow pins; want %d", over, extra)
	}
	if st := d.Stats(); st.Pinned != slotCount+extra {
		t.Fatalf("Pinned = %d; want %d", st.Pinned, slotCount+extra)
	}
	d.Retire(Retired{Val: 9}, 8)
	d.tryAdvance() // 0→1 may succeed: every reader is at the current epoch
	for i := 0; i < 3; i++ {
		if d.tryAdvance() {
			t.Fatalf("advance %d succeeded past overflow readers pinned at epoch 0", i)
		}
	}
	if got := len(freed()); got != 0 {
		t.Fatalf("freed %d items under overflow pins", got)
	}
	for _, g := range guards {
		g.Unpin()
	}
	if st := d.Stats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d after unpin; want 0", st.Pinned)
	}
	if !d.Quiesce() {
		t.Fatal("quiesce failed after unpinning")
	}
	if got := len(freed()); got != 1 {
		t.Fatalf("freed %d items after quiesce; want 1", got)
	}
}

// TestNestedPinsBeyondSlotCapacity is the hold-and-wait regression: more
// goroutines than slots each hold one pin and then take a nested one.
// With a blocking slot acquisition this deadlocked permanently (every
// goroutine holds a slot while waiting for another to free one); the
// overflow path must let every nested pin through.
func TestNestedPinsBeyondSlotCapacity(t *testing.T) {
	d, _ := collectDomain()
	const n = slotCount + 8
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			g1 := d.Pin()
			ready.Done()
			<-start // all n outer pins are held before any nested pin
			g2 := d.Pin()
			g2.Unpin()
			g1.Unpin()
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
	if st := d.Stats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d after all unpins; want 0", st.Pinned)
	}
}

func TestFaultPointsFire(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	d, _ := collectDomain()
	FpAdvance.Arm(faultpoint.Never())
	FpDrain.Arm(faultpoint.Never())
	d.Retire(Retired{Val: 1}, 8)
	d.Quiesce()
	for _, p := range []*faultpoint.Point{FpAdvance, FpDrain} {
		if p.Hits() == 0 {
			t.Fatalf("%s never hit", p.Name())
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d, _ := collectDomain()
	d.Retire(Retired{Val: 1}, 100)
	d.Retire(Retired{Val: 2}, 28)
	st := d.Stats()
	if st.LimboItems != 2 || st.LimboBytes != 128 {
		t.Fatalf("limbo stats = %d items / %d bytes; want 2/128", st.LimboItems, st.LimboBytes)
	}
	d.Quiesce()
	st = d.Stats()
	if st.LimboItems != 0 || st.LimboBytes != 0 {
		t.Fatalf("limbo stats after quiesce = %+v", st)
	}
	if st.Epoch == 0 {
		t.Fatal("epoch did not advance")
	}
}

// A drained bucket keeps its array: once each bucket has grown to the
// backlog it holds, retiring and draining the same backlog again
// allocates nothing.
func TestDrainKeepsLimboArrays(t *testing.T) {
	d := NewDomain(func([]Retired) {})
	cycle := func() {
		for i := 0; i < 100; i++ {
			d.Retire(Retired{Val: uint64(i)}, 8)
		}
		if !d.Quiesce() {
			t.Fatal("limbo did not drain")
		}
	}
	for i := 0; i < buckets; i++ {
		cycle()
		d.Advance() // land the next cycle's retires in another bucket
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a retire/drain cycle allocates %.1f times; want 0", n)
	}
}
