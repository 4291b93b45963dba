//go:build race

package message

// raceEnabled reports that the race detector is compiled in. Under it
// sync.Pool discards a quarter of what it is handed, on purpose, so a test
// that counts allocations or expects a struct back has nothing to measure.
const raceEnabled = true
