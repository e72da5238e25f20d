//go:build !amd64 && !arm64

package arena

import "sync/atomic"

// prefetch is a no-op where no prefetch instruction is wired up.
func prefetch(*byte) {}

// PrefetchWord is a no-op where no prefetch instruction is wired up.
func PrefetchWord(*atomic.Uint64) {}
