//go:build !linux || race

package arena

// mapBlocks is the fallback block source: no mapping, so every block
// comes from the Go heap. Race builds take it too, because the race
// detector does not instrument memory outside the Go heap.
func mapBlocks(int) (*mapping, []byte, error) { return nil, nil, nil }
