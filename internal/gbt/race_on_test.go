//go:build race

package gbt

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates and makes allocation counts
// meaningless.
const raceEnabled = true
