package freelist

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// words keeps the links of elements 1..n-1 in atomic words.
type words []atomic.Uint64

type wordLinks struct{ w words }

func (l wordLinks) Link(idx uint64) uint64   { return l.w[idx].Load() }
func (l wordLinks) SetLink(idx, next uint64) { l.w[idx].Store(next) }

// hookLinks reads links from words, but runs hook once, on the first
// Link call while hook is set, after reading the link and before
// returning it: a pop's window between its link load and its CAS.
type hookLinks struct {
	w    words
	hook *func()
}

func (l hookLinks) Link(idx uint64) uint64 {
	next := l.w[idx].Load()
	if h := *l.hook; h != nil {
		*l.hook = nil
		h()
	}
	return next
}

func (l hookLinks) SetLink(idx, next uint64) { l.w[idx].Store(next) }

// TestPopRejectsStaleLink is the ABA case, forced without sleeps: between
// a pop's link load and its CAS, another pop takes the same head element
// A, a third takes its successor B, and A is pushed back alone. The head
// is A again, but the stale pop read A → B; its CAS must fail, or B
// would be handed out while someone else owns it.
func TestPopRejectsStaleLink(t *testing.T) {
	const a, b = 1, 2
	var hook func()
	links := hookLinks{w: make(words, 3), hook: &hook}
	var l List[hookLinks]
	links.w[a].Store(b)
	l.push(links, 0, a, b, 2)

	var calls int
	counting := hookLinks{w: links.w, hook: new(func())}
	hook = func() {
		calls++
		if x, ok := l.pop(counting, 0); !ok || x != a {
			t.Fatalf("inner pop = %d, %v; want %d", x, ok, a)
		}
		if x, ok := l.pop(counting, 0); !ok || x != b {
			t.Fatalf("second inner pop = %d, %v; want %d", x, ok, b)
		}
		links.w[a].Store(0xdead) // A's new owner writes over its link
		l.push(counting, 0, a, a, 1)
	}
	got, ok := l.pop(links, 0)
	if calls != 1 {
		t.Fatalf("the interleaving ran %d times", calls)
	}
	if !ok || got != a {
		t.Fatalf("pop = %d, %v; want %d", got, ok, a)
	}
	// B belongs to the second inner pop: the list must be empty now.
	if x, ok := l.Pop(links); ok {
		t.Fatalf("popped %d from a list that should be empty", x)
	}
	if n := l.Count(); n != 0 {
		t.Fatalf("Count = %d, want 0", n)
	}
}

// TestRunsAndCount pushes linked runs, pops some, takes the rest stripe
// by stripe, and checks Count and that every element comes back once.
func TestRunsAndCount(t *testing.T) {
	const n = 1000
	links := wordLinks{make(words, n+1)}
	var l List[wordLinks]
	for lo := uint64(1); lo <= n; lo += 10 {
		for i := lo; i < lo+9; i++ {
			links.SetLink(i, i+1)
		}
		l.Push(links, lo, lo+9, 10)
	}
	if c := l.Count(); c != n {
		t.Fatalf("Count = %d after pushing %d", c, n)
	}
	seen := make([]bool, n+1)
	take := func(idx uint64) {
		if idx == 0 || idx > n || seen[idx] {
			t.Fatalf("element %d out of range or seen twice", idx)
		}
		seen[idx] = true
	}
	for i := 0; i < n/3; i++ {
		idx, ok := l.Pop(links)
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		take(idx)
	}
	if c := l.Count(); c != n-n/3 {
		t.Fatalf("Count = %d after %d pops", c, n/3)
	}
	for j := 0; j < Stripes; j++ {
		for idx := l.TakeAll(links, j); idx != 0; idx = links.Link(idx) {
			take(idx)
		}
	}
	if c := l.Count(); c != 0 {
		t.Fatalf("Count = %d after taking every stripe", c)
	}
	if _, ok := l.Pop(links); ok || l.avail.Load() != 0 {
		t.Fatalf("pop from an emptied list: ok %v, avail %b", ok, l.avail.Load())
	}
	for i := 1; i <= n; i++ {
		if !seen[i] {
			t.Fatalf("element %d lost", i)
		}
	}
}

// TestConcurrentPushPopTakeAll churns a list from several goroutines: each
// pops elements, claims them in an owner table (a second owner means one
// element was handed out twice), and pushes them back in runs; one
// goroutine also takes whole stripes and pushes them back. At the end
// every element is on the list exactly once.
func TestConcurrentPushPopTakeAll(t *testing.T) {
	const n = 4096
	const workers = 4
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	links := wordLinks{make(words, n+1)}
	var l List[wordLinks]
	for i := uint64(1); i < n; i++ {
		links.SetLink(i, i+1)
	}
	l.Push(links, 1, n, n)
	owner := make([]atomic.Int32, n+1)
	claim := func(g int32, idx uint64) {
		if idx == 0 || idx > n {
			t.Errorf("popped element %d out of range", idx)
		} else if !owner[idx].CompareAndSwap(0, g) {
			t.Errorf("element %d handed to %d while %d owns it", idx, g, owner[idx].Load())
		}
	}
	release := func(g int32, run []uint64) {
		for i, idx := range run {
			if !owner[idx].CompareAndSwap(g, 0) {
				t.Errorf("element %d released by %d, owned by %d", idx, g, owner[idx].Load())
			}
			if i+1 < len(run) {
				links.SetLink(idx, run[i+1])
			}
		}
		l.Push(links, run[0], run[len(run)-1], len(run))
	}
	var wg sync.WaitGroup
	for g := int32(1); g <= workers; g++ {
		wg.Add(1)
		go func(g int32) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			held := make([]uint64, 0, 16)
			for r := 0; r < rounds && !t.Failed(); r++ {
				for k := 1 + rng.IntN(16); len(held) < k; {
					idx, ok := l.Pop(links)
					if !ok {
						break
					}
					claim(g, idx)
					held = append(held, idx)
				}
				if len(held) > 0 {
					release(g, held)
					held = held[:0]
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		const g = workers + 1
		var run []uint64
		for r := 0; r < rounds/10 && !t.Failed(); r++ {
			run = run[:0]
			for idx := l.TakeAll(links, r%Stripes); idx != 0; idx = links.Link(idx) {
				claim(g, idx)
				run = append(run, idx)
			}
			if len(run) > 0 {
				release(g, run)
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if c := l.Count(); c != n {
		t.Fatalf("Count = %d at quiesce, want %d", c, n)
	}
	seen := make([]bool, n+1)
	for j := 0; j < Stripes; j++ {
		for idx := l.TakeAll(links, j); idx != 0; idx = links.Link(idx) {
			if seen[idx] {
				t.Fatalf("element %d is on the list twice", idx)
			}
			seen[idx] = true
		}
	}
	for i := 1; i <= n; i++ {
		if !seen[i] {
			t.Fatalf("element %d lost", i)
		}
	}
}

// TestPopPushAllocationFree: the owner's links are passed by value, so a
// pop and a push allocate nothing.
func TestPopPushAllocationFree(t *testing.T) {
	links := wordLinks{make(words, 2)}
	var l List[wordLinks]
	l.Push(links, 1, 1, 1)
	if n := testing.AllocsPerRun(1000, func() {
		idx, _ := l.Pop(links)
		l.Push(links, idx, idx, 1)
	}); n != 0 {
		t.Fatalf("a pop and a push allocate %.1f times", n)
	}
}
