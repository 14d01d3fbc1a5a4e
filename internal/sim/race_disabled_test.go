//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; the
// allocation-regression gates skip under it (instrumentation changes
// allocation counts).
const raceEnabled = false
