//go:build race

package core

// The race detector makes sync.Pool drop items at random, so allocation
// counts through a pool are not deterministic under it.
func init() { raceEnabled = true }
