//go:build race

package core

// raceEnabled lets allocation guards skip and long parity runs
// shrink under -race: testing.AllocsPerRun counts the race runtime's
// own bookkeeping allocations, and instrumented code runs ~10x slower.
const raceEnabled = true
