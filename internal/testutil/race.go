//go:build race

package testutil

// RaceEnabled reports whether the test binary was built with the race
// detector, under which allocation counts are not the program's own and
// code runs many times slower: allocation pins, and the experiments'
// golden, which searches on one goroutine, skip when it is set.
const RaceEnabled = true
