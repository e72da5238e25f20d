package lockset

import (
	"go/token"
	"sort"
	"strings"

	"oakmap/internal/analysis"
)

// edge is one observed or declared lock-order constraint.
type edge struct {
	From, To string
	Pos      token.Pos
	Declared bool
}

// heldCall is one static call made while holding classed locks.
type heldCall struct {
	held   []string
	callee string // types.Func.FullName
	pos    token.Pos
}

// orderFact is one package's lock-order summary.
type orderFact struct {
	edges    []edge
	held     []heldCall
	acquires map[string]map[string]bool // func FullName -> classes it blocking-acquires directly
	calls    map[string]map[string]bool // func FullName -> static callees, go-launched ones excluded
}

func finish(m *analysis.ModulePass) error {
	acquires := make(map[string]map[string]bool)
	calls := make(map[string]map[string]bool)
	var edges []edge
	for _, raw := range m.Facts {
		f := raw.(*orderFact)
		edges = append(edges, f.edges...)
		for fn, set := range f.acquires {
			acquires[fn] = set
		}
		for fn, set := range f.calls {
			calls[fn] = set
		}
	}
	// A call made while holding locks orders them before everything the
	// callee transitively acquires.
	acquires = transitive(acquires, calls)
	for _, raw := range m.Facts {
		for _, c := range raw.(*orderFact).held {
			for to := range acquires[c.callee] {
				for _, from := range c.held {
					edges = append(edges, edge{From: from, To: to, Pos: c.pos})
				}
			}
		}
	}
	reportCycles(m, edges)
	return nil
}

// reportCycles reports every edge that lies on a cycle of the class
// graph, and every undeclared same-class nesting.
func reportCycles(m *analysis.ModulePass, edges []edge) {
	// Collapse parallel edges, keeping the earliest position of each
	// (from, to).
	type key struct{ from, to string }
	first := make(map[key]edge)
	declaredSelf := make(map[string]bool)
	adj := make(map[string]map[string]bool)
	for _, e := range edges {
		if e.Declared && e.From == e.To {
			declaredSelf[e.From] = true
			continue
		}
		k := key{e.From, e.To}
		if prev, ok := first[k]; !ok || e.Pos < prev.Pos {
			first[k] = e
		}
		add(adj, e.From, e.To)
	}
	reach := make(map[string]map[string]bool) // class -> classes reachable from it
	reachable := func(from string) map[string]bool {
		if r, ok := reach[from]; ok {
			return r
		}
		r := make(map[string]bool)
		reach[from] = r
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for to := range adj[n] {
				if !r[to] {
					r[to] = true
					stack = append(stack, to)
				}
			}
		}
		return r
	}

	keys := make([]key, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		e := first[k]
		switch {
		case k.from == k.to && !declaredSelf[k.from]:
			m.Report(e.Pos, "acquiring %s while another %s is already held: same-class nesting deadlocks unless instances are locked in a documented total order (declare //oak:lock-order %s %s next to that order)",
				k.to, k.from, k.from, k.to)
		case k.from != k.to && reachable(k.to)[k.from]:
			// Name the whole cycle: every class on a cycle through k.from.
			var comp []string
			for n := range reachable(k.from) {
				if reachable(n)[k.from] {
					comp = append(comp, n)
				}
			}
			sort.Strings(comp)
			if e.Declared {
				m.Report(e.Pos, "declared lock order %s before %s is part of an acquisition cycle {%s}: some code path locks against this order",
					e.From, e.To, strings.Join(comp, ", "))
			} else {
				m.Report(e.Pos, "acquiring %s while holding %s closes a lock-order cycle {%s}: two goroutines entering it from different points deadlock",
					e.To, e.From, strings.Join(comp, ", "))
			}
		}
	}
}
