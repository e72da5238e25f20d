//go:build !amd64 && !arm64

package arena

// prefetch is a no-op where no prefetch instruction is wired up.
func prefetch(*byte) {}
