//go:build race

package sweep_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
