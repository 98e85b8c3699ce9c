//go:build !race

package cost

// raceEnabled reports whether the race detector instruments this build; its
// instrumentation allocates, so allocation-count assertions only hold
// without it.
const raceEnabled = false
