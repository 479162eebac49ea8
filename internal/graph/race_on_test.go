//go:build race

package graph

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates on its own.
const raceEnabled = true
