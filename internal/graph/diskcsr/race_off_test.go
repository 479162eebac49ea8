//go:build !race

package diskcsr

const raceEnabled = false
