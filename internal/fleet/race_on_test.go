//go:build race

package fleet

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops items at random and allocation
// counts mean nothing.
const raceEnabled = true
