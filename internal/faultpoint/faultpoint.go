// Package faultpoint provides named, deterministic fault-injection
// points for concurrency testing. Production code declares points at the
// places where the algorithm's hard cases live (allocation failure, CAS
// retry, rebalance windows) and consults them inline:
//
//	if FpAllocFail.Fire() {
//		return NilRef, ErrInjected
//	}
//
// When no hook is armed, Fire is a single atomic pointer load — cheap
// enough to leave in hot paths permanently. Tests arm points with hooks
// that decide per hit whether the fault fires: always, on the Nth hit,
// every Nth hit, with a seeded probability (reproducible runs), or via a
// Gate that blocks the hitting goroutine until the test releases it —
// the primitive for scripting cross-goroutine interleavings (pause a
// rebalancer mid-split, run a scan, resume).
//
// Points are exported package-level vars and are armed only through
// them (core.FpRebalanceSplit.Arm(h)), so a misspelled point is a
// compile error, not a hook that silently arms nothing. Each point also
// registers its name in a global registry: a duplicate name panics at
// init, Counters reads every point's hit/fire counters by name, and
// ArmAll and DisarmAll arm and disarm them all. The registry is global state: tests that
// arm points must not run in parallel with each other and should
// disarm in a cleanup.
package faultpoint

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Hook decides, per hit, whether the fault fires. Decide receives the
// 1-based hit ordinal (counted while this hook is armed) and returns
// true to fire. Decide may block (see Gate) to control interleavings; it
// runs on the hitting goroutine, possibly under locks held by the
// instrumented code, so it must not touch the instrumented structure.
type Hook struct {
	Decide func(hit int64) bool
}

// Point is a named fault-injection site.
type Point struct {
	name  string
	hook  atomic.Pointer[Hook]
	hits  atomic.Int64 // hits observed while a hook was armed
	fires atomic.Int64 // hits on which the fault fired
}

var registry struct {
	mu     sync.Mutex
	points map[string]*Point
}

// New declares a point and registers it under name. It is intended for
// package-level var initialization; declaring the same name twice
// panics (it would split the counters).
func New(name string) *Point {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.points == nil {
		registry.points = make(map[string]*Point)
	}
	if _, dup := registry.points[name]; dup {
		panic("faultpoint: duplicate point " + name)
	}
	p := &Point{name: name}
	registry.points[name] = p
	return p
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fire reports whether the fault fires at this hit. With no hook armed
// it costs one atomic load and returns false. Pause-style sites ignore
// the result; branch-style sites divert on true.
//
// Fire must stay within the compiler's inlining budget (check with
// -gcflags=-m): the disarmed fast path is compiled into the map's hot
// paths, so the nil test has to happen at the call site, not behind a
// call. fireSlow re-loads the hook for that reason — passing it as an
// argument pushes Fire's inline cost over the budget.
func (p *Point) Fire() bool {
	if p.hook.Load() == nil {
		return false
	}
	return p.fireSlow()
}

//go:noinline
func (p *Point) fireSlow() bool {
	h := p.hook.Load()
	if h == nil { // disarmed between the loads
		return false
	}
	n := p.hits.Add(1)
	if h.Decide == nil || !h.Decide(n) {
		return false
	}
	p.fires.Add(1)
	return true
}

// Enabled reports whether a hook is armed.
func (p *Point) Enabled() bool { return p.hook.Load() != nil }

// Arm installs h and resets the point's counters. Passing a zero-value
// Hook (nil Decide) counts hits without ever firing — useful to measure
// how often a site is reached.
func (p *Point) Arm(h Hook) {
	p.hits.Store(0)
	p.fires.Store(0)
	p.hook.Store(&h)
}

// Disarm removes the hook; counters are preserved for inspection.
// Goroutines already blocked inside a Gate hook are not released —
// open the gate as well.
func (p *Point) Disarm() { p.hook.Store(nil) }

// Hits returns the number of hits observed since the last Arm.
func (p *Point) Hits() int64 { return p.hits.Load() }

// Fires returns the number of fired hits since the last Arm.
func (p *Point) Fires() int64 { return p.fires.Load() }

// ArmAll installs h on every registered point. With Never it turns
// Counters into a reach report: a point with zero hits after a workload
// is a dead hook whose window no longer exists.
func ArmAll(h Hook) {
	for _, p := range all() {
		p.Arm(h)
	}
}

// DisarmAll removes the hooks from every registered point.
func DisarmAll() {
	for _, p := range all() {
		p.Disarm()
	}
}

// Counts is a counter snapshot of one point.
type Counts struct {
	Hits, Fires int64
	Armed       bool
}

// Counters returns a snapshot of every registered point's counters,
// keyed by point name.
func Counters() map[string]Counts {
	out := make(map[string]Counts)
	for _, p := range all() {
		out[p.name] = Counts{Hits: p.Hits(), Fires: p.Fires(), Armed: p.Enabled()}
	}
	return out
}

func all() []*Point {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	ps := make([]*Point, 0, len(registry.points))
	for _, p := range registry.points {
		ps = append(ps, p)
	}
	return ps
}

// Canned hooks.

// Always fires on every hit.
func Always() Hook {
	return Hook{Decide: func(int64) bool { return true }}
}

// Never observes hits without firing (reach measurement).
func Never() Hook { return Hook{} }

// OnHit fires on exactly the nth hit (1-based).
func OnHit(n int64) Hook {
	return Hook{Decide: func(hit int64) bool { return hit == n }}
}

// Every fires on every nth hit.
func Every(n int64) Hook {
	return Hook{Decide: func(hit int64) bool { return hit%n == 0 }}
}

// WithProb fires each hit with probability p, drawn from a PRNG seeded
// with seed: runs with the same seed and a deterministic schedule
// reproduce the same firing pattern.
func WithProb(p float64, seed uint64) Hook {
	var mu sync.Mutex
	rng := rand.New(rand.NewPCG(seed, 0xfa017))
	return Hook{Decide: func(int64) bool {
		mu.Lock()
		fired := rng.Float64() < p
		mu.Unlock()
		return fired
	}}
}

// Delayed wraps h, sleeping d before each decision — a blunt instrument
// for widening race windows under load (use Gate for exact schedules).
func Delayed(d time.Duration, h Hook) Hook {
	return Hook{Decide: func(hit int64) bool {
		time.Sleep(d)
		if h.Decide == nil {
			return false
		}
		return h.Decide(hit)
	}}
}

// Gate blocks goroutines that hit its hook until the test opens it —
// the pause/resume primitive for deterministic interleaving control.
//
//	g := faultpoint.NewGate()
//	point.Arm(g.Hook(1))          // pause the 1st hitter
//	go m.rebalance(c)             // runs until it hits the point
//	g.WaitArrival(time.Second)    // rebalancer is now parked mid-window
//	...                           // interfere: reads, scans, other ops
//	g.Open()                      // release it
type Gate struct {
	release  chan struct{}
	arrivals chan struct{}
	once     sync.Once
}

// NewGate returns a closed gate.
func NewGate() *Gate {
	return &Gate{
		release:  make(chan struct{}),
		arrivals: make(chan struct{}, 1024),
	}
}

// Hook returns a hook that blocks the nth hitter (and every later one)
// at the gate until Open; earlier hits pass through. The hook never
// fires the fault — pausing is its only effect — so it suits both
// pause-style and branch-style sites.
func (g *Gate) Hook(n int64) Hook {
	return Hook{Decide: func(hit int64) bool {
		if hit < n {
			return false
		}
		select {
		case g.arrivals <- struct{}{}:
		default:
		}
		<-g.release
		return false
	}}
}

// WaitArrival blocks until a goroutine parks at the gate, or the
// timeout elapses; it reports whether an arrival was observed. Each
// arrival is consumed once.
func (g *Gate) WaitArrival(timeout time.Duration) bool {
	select {
	case <-g.arrivals:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Open releases all current and future hitters. Idempotent.
func (g *Gate) Open() { g.once.Do(func() { close(g.release) }) }
