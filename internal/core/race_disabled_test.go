//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation-regression gates skip under it (instrumentation changes
// allocation counts).
const raceEnabled = false
