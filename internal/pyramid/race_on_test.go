//go:build race

package pyramid

// raceEnabled reports a race-detector build, whose instrumentation may
// allocate, so the allocation pins skip.
const raceEnabled = true
