package graph

// Test-only exports for the external graph_test package, whose tests
// build their graphs with packages (synth, diskcsr) that import this
// one.
var (
	SamplePathLengthsSeq   = samplePathLengthsSeq
	DoubleSweepDiameterSeq = doubleSweepDiameterSeq
	RaceEnabled            = raceEnabled
)

// NewWave returns a function that runs one wave from srcs on a scratch
// it keeps between calls, so a caller can measure a warm wave. Directed
// waves also track far nodes, as the double sweep does.
func NewWave() func(g View, srcs []NodeID, dir Direction) []int64 {
	var s waveScratch
	return func(g View, srcs []NodeID, dir Direction) []int64 {
		return s.run(g, srcs, true, dir == Undirected, dir == Directed)
	}
}
