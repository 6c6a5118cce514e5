//go:build race

package reuse

// raceEnabled lets allocation guards skip and long differential runs
// shrink under -race: testing.AllocsPerRun counts the race runtime's
// own bookkeeping allocations, and instrumented code runs ~10x slower.
const raceEnabled = true
