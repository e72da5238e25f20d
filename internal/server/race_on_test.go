//go:build race

package server

// raceEnabled mirrors the race detector's presence so the allocation
// gates can skip themselves: instrumented builds allocate on their own.
const raceEnabled = true
