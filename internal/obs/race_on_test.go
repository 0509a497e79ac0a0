//go:build race

package obs

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops items at random.
const raceEnabled = true
