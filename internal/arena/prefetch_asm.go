//go:build amd64 || arm64

package arena

import "sync/atomic"

// prefetch hints the cache line holding *p into L1 (PREFETCHT0 /
// PRFM PLDL1KEEP). It loads nothing into a register, so it cannot fault
// or race.
//
//go:noescape
func prefetch(p *byte)

// PrefetchWord is prefetch for a word on the Go heap: it hints the cache
// line holding *p into L1, so a package that keeps its hot words in
// atomics can ask for them early without unsafe.
//
//go:noescape
func PrefetchWord(p *atomic.Uint64)
