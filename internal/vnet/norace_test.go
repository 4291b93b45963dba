//go:build !race

package vnet

const raceEnabled = false
