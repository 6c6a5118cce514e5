//go:build !race

package phasedet_test

const raceEnabled = false
