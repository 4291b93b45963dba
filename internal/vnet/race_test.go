//go:build race

package vnet

// raceEnabled reports that the race detector is compiled in. Under it
// sync.Pool discards a quarter of what it is handed, on purpose, so a test
// that counts allocations has nothing to measure.
const raceEnabled = true
