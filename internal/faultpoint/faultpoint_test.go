package faultpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runs numbers the points freshPoint declares.
var runs atomic.Int64

// freshPoint declares a point with fresh counters for one test run. With
// -cpu or -count a test runs several times in one process, and a name
// may be declared only once.
func freshPoint(name string) *Point {
	return New(fmt.Sprintf("%s/%d", name, runs.Add(1)))
}

func TestDisarmedFireIsNoop(t *testing.T) {
	p := freshPoint("test/noop")
	for i := 0; i < 100; i++ {
		if p.Fire() {
			t.Fatal("disarmed point fired")
		}
	}
	if p.Hits() != 0 {
		t.Fatalf("disarmed point counted %d hits", p.Hits())
	}
}

func TestCannedHooks(t *testing.T) {
	p := freshPoint("test/canned")

	p.Arm(Always())
	if !p.Fire() || !p.Fire() {
		t.Fatal("Always did not fire")
	}
	if p.Hits() != 2 || p.Fires() != 2 {
		t.Fatalf("counters = %d/%d; want 2/2", p.Hits(), p.Fires())
	}

	p.Arm(Never())
	p.Fire()
	p.Fire()
	if p.Hits() != 2 || p.Fires() != 0 {
		t.Fatalf("Never: counters = %d/%d; want 2/0", p.Hits(), p.Fires())
	}

	p.Arm(OnHit(3))
	got := []bool{p.Fire(), p.Fire(), p.Fire(), p.Fire()}
	want := []bool{false, false, true, false}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("OnHit(3) hit %d = %v; want %v", i+1, got[i], want[i])
		}
	}

	p.Arm(Every(2))
	fires := 0
	for i := 0; i < 10; i++ {
		if p.Fire() {
			fires++
		}
	}
	if fires != 5 {
		t.Fatalf("Every(2) fired %d of 10; want 5", fires)
	}

	p.Disarm()
	if p.Enabled() {
		t.Fatal("still enabled after Disarm")
	}
	if p.Fire() {
		t.Fatal("fired after Disarm")
	}
}

func TestWithProbIsSeeded(t *testing.T) {
	p := freshPoint("test/prob")
	run := func(seed uint64) []bool {
		p.Arm(WithProb(0.5, seed))
		defer p.Disarm()
		out := make([]bool, 64)
		for i := range out {
			out[i] = p.Fire()
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different firing pattern")
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-hit pattern (suspicious)")
	}
}

func TestGatePauseResume(t *testing.T) {
	p := freshPoint("test/gate")
	g := NewGate()
	p.Arm(g.Hook(2)) // second hitter parks
	defer p.Disarm()

	if p.Fire() {
		t.Fatal("gate hook fired")
	}

	released := make(chan struct{})
	go func() {
		p.Fire() // parks until Open
		close(released)
	}()
	if !g.WaitArrival(5 * time.Second) {
		t.Fatal("no arrival at gate")
	}
	select {
	case <-released:
		t.Fatal("goroutine passed a closed gate")
	case <-time.After(20 * time.Millisecond):
	}
	g.Open()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("goroutine not released by Open")
	}
	g.Open() // idempotent
	p.Fire() // open gate: passes straight through
}

func TestRegistryArmAndCounters(t *testing.T) {
	p := freshPoint("test/registry")
	p.Arm(Always())
	p.Fire()
	cs := Counters()
	c, ok := cs[p.Name()]
	if !ok || c.Hits != 1 || c.Fires != 1 || !c.Armed {
		t.Fatalf("Counters() = %+v, %v", c, ok)
	}
	DisarmAll()
	if p.Enabled() {
		t.Fatal("DisarmAll left point armed")
	}
	ArmAll(Never())
	if p.Fire() || !p.Enabled() || p.Hits() != 1 {
		t.Fatalf("ArmAll(Never()): enabled=%v hits=%d", p.Enabled(), p.Hits())
	}
	DisarmAll()
	// A second declaration of a name would split its counters: New
	// panics, so a binary linking both declarations fails at init.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate New did not panic")
		}
	}()
	New(p.Name())
}

func TestConcurrentFire(t *testing.T) {
	p := freshPoint("test/concurrent")
	p.Arm(Every(3))
	defer p.Disarm()
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 3000; i++ {
				if p.Fire() {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if p.Hits() != 24000 {
		t.Fatalf("hits = %d; want 24000", p.Hits())
	}
	if int64(total) != p.Fires() || total != 8000 {
		t.Fatalf("fires = %d (returned %d); want 8000", p.Fires(), total)
	}
}
