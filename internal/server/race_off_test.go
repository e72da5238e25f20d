//go:build !race

package server

// raceEnabled mirrors the race detector's presence (see race_on_test.go).
const raceEnabled = false
