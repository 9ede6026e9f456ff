//go:build !race

package core

// raceEnabled gates allocation-count assertions: under the race
// detector sync.Pool drops a quarter of all puts, so "zero allocations"
// cannot hold by design.
const raceEnabled = false
