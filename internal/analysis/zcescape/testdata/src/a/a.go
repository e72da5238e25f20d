// Package a exercises the zcescape analyzer: every way a scope-bound
// zero-copy value (stream view, compute buffer, read slice) can leak
// out of its callback, next to the copy idioms that are safe.
package a

import "oakmap"

type holder struct {
	view *oakmap.OakRBuffer
	data []byte
}

var globalView *oakmap.OakRBuffer

func sink(b *oakmap.OakRBuffer) {}

func consume(p []byte) int { return len(p) }

func assignEscapes(m *oakmap.Map[uint64, uint64]) *oakmap.OakRBuffer {
	zc := m.ZC()
	var kept *oakmap.OakRBuffer
	zc.AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		kept = v       // want `stream view v escapes its callback: assigned to kept, declared outside the callback`
		globalView = k // want `stream view k escapes its callback: assigned to globalView, declared outside the callback`
		return true
	})
	return kept
}

func storeEscapes(m *oakmap.Map[uint64, uint64], h *holder) {
	m.ZC().DescendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		h.view = v // want `stream view v escapes its callback: stored into memory that may outlive it`
		return true
	})
}

func sendEscapes(m *oakmap.Map[uint64, uint64], ch chan *oakmap.OakRBuffer) {
	m.ZC().AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		ch <- v // want `stream view v escapes its callback: sent on a channel`
		return true
	})
}

func goroutineEscapes(m *oakmap.Map[uint64, uint64]) {
	m.ZC().AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		go sink(v) // want `stream view v escapes its callback: passed to a goroutine`
		return true
	})
}

func closureEscape(m *oakmap.Map[uint64, uint64]) func() {
	var f func()
	m.ZC().AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		f = func() { sink(v) } // want `stream view v escapes its callback: captured by a closure that may outlive it`
		return true
	})
	return f
}

func keysStreamEscapes(m *oakmap.Map[uint64, uint64], h *holder) {
	m.ZC().KeysStream(nil, nil, func(k *oakmap.OakRBuffer) bool {
		h.view = k // want `stream view k escapes its callback: stored into memory that may outlive it`
		return true
	})
}

func derivedAliasEscapes(m *oakmap.Map[uint64, uint64], h *holder) {
	m.ZC().AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		alias := v
		h.view = alias // want `stream view alias escapes its callback: stored into memory that may outlive it`
		return true
	})
}

func readSliceEscapes(m *oakmap.Map[uint64, uint64], h *holder) {
	view := m.ZC().Get(7)
	if view == nil {
		return
	}
	_ = view.Read(func(p []byte) error {
		h.data = p // want `read slice p escapes its callback: stored into memory that may outlive it`
		return nil
	})
}

func mapReadSliceEscapes(m *oakmap.Map[uint64, uint64], h *holder) {
	_, _ = m.ZC().Read(7, func(p []byte) error {
		h.data = p // want `read slice p escapes its callback: stored into memory that may outlive it`
		return nil
	})
	_, _ = m.ZC().Read(7, func(p []byte) error {
		h.data = append(h.data[:0], p...) // copies out: safe
		return nil
	})
}

func dynamicCallEscapes(m *oakmap.Map[uint64, uint64], visit func([]byte)) {
	m.ZC().ValuesStream(nil, nil, func(v *oakmap.OakRBuffer) bool {
		_ = v.Read(func(p []byte) error {
			visit(p) // want `read slice p escapes its callback: passed to a caller-supplied function value`
			return nil
		})
		return true
	})
}

func annotatedPropagation(m *oakmap.Map[uint64, uint64], visit func([]byte)) {
	m.ZC().ValuesStream(nil, nil, func(v *oakmap.OakRBuffer) bool {
		_ = v.Read(func(p []byte) error {
			// visit honors the same "valid during the callback" rule;
			// reviewed contract propagation, so no diagnostic expected.
			visit(p) //oak:zc-view
			return nil
		})
		return true
	})
}

func safeIdioms(m *oakmap.Map[uint64, uint64], h *holder) {
	m.ZC().AscendStream(nil, nil, func(k, v *oakmap.OakRBuffer) bool {
		_ = v.Read(func(p []byte) error {
			h.data = append(h.data[:0], p...) // ellipsis append copies bytes out
			_ = string(p)                     // string conversion copies
			_ = consume(p)                    // named function: assumed synchronous
			if len(p) > 0 {
				_ = p[0] // scalar index copies
			}
			for _, b := range p { // ranging over bytes copies elements
				_ = b
			}
			return nil
		})
		kept, err := v.Copy() // detached on-heap snapshot: retainable
		if err == nil {
			h.view = kept
		}
		return true
	})
}

type wholder struct {
	w oakmap.OakWBuffer // want `struct field of type OakWBuffer outlives the compute lambda that owns the buffer`
}

var globalW oakmap.OakWBuffer // want `package-level OakWBuffer outlives every compute lambda`

var wch chan oakmap.OakWBuffer // want `channel of OakWBuffer carries compute buffers out of their lambda`

func computeEscapes(m *oakmap.Map[uint64, uint64], hw *wholder) {
	_, _ = m.ZC().ComputeIfPresent(1, func(w oakmap.OakWBuffer) error {
		hw.w = w    // want `compute buffer w escapes its callback: stored into memory that may outlive it`
		globalW = w // want `compute buffer w escapes its callback: assigned to globalW, declared outside the callback`
		return nil
	})
}

func computeBytesEscapes(m *oakmap.Map[uint64, uint64], h *holder) {
	_ = m.ZC().PutIfAbsentComputeIfPresent(1, 2, func(w oakmap.OakWBuffer) error {
		h.data = w.Bytes() // want `compute buffer w escapes its callback: stored into memory that may outlive it`
		return nil
	})
}

func computeSafe(m *oakmap.Map[uint64, uint64]) {
	_, _ = m.ZC().ComputeIfPresent(1, func(w oakmap.OakWBuffer) error {
		w.PutUint64At(0, w.Uint64At(0)+1) // in-place use inside the lambda
		return w.Resize(16)
	})
}
