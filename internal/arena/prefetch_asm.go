//go:build amd64 || arm64

package arena

// prefetch hints the cache line holding *p into L1 (PREFETCHT0 /
// PRFM PLDL1KEEP). It loads nothing into a register, so it cannot fault
// or race.
//
//go:noescape
func prefetch(p *byte)
