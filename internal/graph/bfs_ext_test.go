package graph_test

import (
	"context"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"testing"

	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/synth"
)

// backends returns g in RAM and as a memory-mapped v2 file.
func backends(t *testing.T, g *graph.Graph) map[string]graph.View {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.v2")
	if err := diskcsr.WriteGraph(path, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	m, err := diskcsr.Open(path, diskcsr.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return map[string]graph.View{"ram": g, "mmap": m}
}

// TestPathSamplerMatchesPerSourceOracleOnUniverse checks that the wave
// kernels give the same answers as one BFS per source on a calibrated
// synthetic universe over both storage backends: the sampled path-length
// distribution at several parallelisms, and the double-sweep diameter
// over several seeds.
func TestPathSamplerMatchesPerSourceOracleOnUniverse(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	opt := func(seed uint64, par int) graph.PathLengthOptions {
		return graph.PathLengthOptions{
			MinSources: 64, MaxSources: 256, Parallelism: par,
			Rand: rand.New(rand.NewPCG(seed, 3)),
		}
	}
	for _, dir := range []graph.Direction{graph.Directed, graph.Undirected} {
		want := graph.SamplePathLengthsSeq(u.Graph, dir, opt(1, 1))
		if want.Sources < 64 || want.Reachable == 0 {
			t.Fatalf("%v oracle drew a degenerate sample: %+v", dir, want)
		}
		var diam []int
		for seed := range uint64(4) {
			diam = append(diam, graph.DoubleSweepDiameterSeq(u.Graph, dir, 4, rand.New(rand.NewPCG(seed, 5))))
		}
		for name, v := range backends(t, u.Graph) {
			for _, par := range []int{1, 3} {
				got := graph.SamplePathLengths(context.Background(), v, dir, opt(1, par))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v P=%d: SamplePathLengths\n got %+v\nwant %+v", name, dir, par, got, want)
				}
			}
			for seed := range uint64(4) {
				if got := graph.DoubleSweepDiameter(v, dir, 4, rand.New(rand.NewPCG(seed, 5))); got != diam[seed] {
					t.Errorf("%s %v seed=%d: DoubleSweepDiameter %d, want %d", name, dir, seed, got, diam[seed])
				}
			}
		}
	}
}

// TestWaveAllocFree gates the wave kernel at zero allocations once its
// scratch and row buffer are warm, over both backends and directions.
func TestWaveAllocFree(t *testing.T) {
	if graph.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := rand.New(rand.NewPCG(21, 22))
	b := graph.NewBuilder(2000, 12000)
	for range 12000 {
		b.AddEdge(graph.NodeID(rng.IntN(2000)), graph.NodeID(rng.IntN(2000)))
	}
	srcs := make([]graph.NodeID, 32)
	for i := range srcs {
		srcs[i] = graph.NodeID(rng.IntN(2000))
	}
	for name, v := range backends(t, b.Build()) {
		for _, dir := range []graph.Direction{graph.Directed, graph.Undirected} {
			wave := graph.NewWave()
			wave(v, srcs, dir)
			if allocs := testing.AllocsPerRun(20, func() { wave(v, srcs, dir) }); allocs != 0 {
				t.Errorf("%s %v: warm wave %v allocs/op, want 0", name, dir, allocs)
			}
		}
	}
}
