//go:build race

package feature

// raceEnabled reports a race-detector build, under which sync.Pool
// deliberately drops entries at random and instrumentation may
// allocate, so the allocation pins skip.
const raceEnabled = true
