//go:build !race

package message

const raceEnabled = false
