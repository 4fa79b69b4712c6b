//go:build race

package main

// raceEnabled reports a race-detector build, under which sync.Pool
// deliberately drops entries at random to widen schedule coverage —
// so allocation counts on pooled paths are not meaningful and the
// zero-alloc assertion skips.
const raceEnabled = true
