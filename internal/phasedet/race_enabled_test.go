//go:build race

package phasedet_test

// raceEnabled shrinks the Train-trace comparison under -race, where
// detecting each Train trace takes seconds.
const raceEnabled = true
