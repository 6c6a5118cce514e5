//go:build !race

package reuse

const raceEnabled = false
