package a

import "sync"

// Malformed annotations must be loud errors, never silent no-ops.

type badDecls struct {
	mu   sync.Mutex
	data []byte

	a int //oak:guarded-by nosuch // want `no sibling field "nosuch" in a.badDecls`
	b int //oak:guarded-by Wrong.mu // want `no type "Wrong" in package a`
	c int //oak:guarded-by registry.nosuch // want `type a.registry has no field "nosuch"`
	d int //oak:guarded-by data // want `a.badDecls.data is not a sync.Mutex or sync.RWMutex`
	e int //oak:guarded-by // want `needs a mutex name`
}

type hasEmbedded struct {
	sync.Mutex //oak:guarded-by mu // want `on an embedded field`
}

// Cross-struct guard reference: the Type.field form works, and two
// annotations share one comment line.
type sidecar struct {
	n int //oak:guarded-by registry.pendMu //oak:allow lockset installer-private scratch field
}

func bumpSidecar(r *registry, s *sidecar) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	s.n++
}

func bumpSidecarRacy(s *sidecar) {
	s.n++ // want `write to a.sidecar.n without a.registry.pendMu held`
}
