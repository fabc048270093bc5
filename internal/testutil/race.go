//go:build race

package testutil

// RaceEnabled reports whether the test binary was built with the race
// detector, under which allocation counts are not the program's own:
// allocation pins skip when it is set.
const RaceEnabled = true
