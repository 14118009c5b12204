//go:build race

package exec

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation changes allocation counts; allocation
// bounds are skipped under it.
const raceEnabled = true
