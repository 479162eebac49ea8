package diskcsr

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gplus/internal/graph"
)

// The storage benchmark fixture: one mid-sized graph shared by every
// BenchmarkStorage* function, plus its v2 encoding on disk.
const (
	benchNodes = 200_000
	benchEdges = 2_000_000
)

var (
	benchOnce  sync.Once
	benchGraph *graph.Graph
	benchDir   string
	benchV2    string
)

func benchSetup(b *testing.B) (*graph.Graph, string) {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewPCG(2012, 35))
		benchGraph = randomGraph(benchNodes, benchEdges, rng)
		dir, err := os.MkdirTemp("", "diskcsr-bench-*")
		if err != nil {
			panic(err)
		}
		benchDir = dir
		benchV2 = filepath.Join(dir, "graph.v2")
		if err := WriteGraph(benchV2, benchGraph); err != nil {
			panic(err)
		}
	})
	return benchGraph, benchV2
}

// TestMain tears down the shared benchmark fixture directory, which
// outlives any single benchmark on purpose.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func reportEdges(b *testing.B, edges int64) {
	b.Helper()
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkStorageWriteSegments prices the crawl-time ingest path:
// streaming edges into sorted segment files.
func BenchmarkStorageWriteSegments(b *testing.B) {
	g, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "segs")
		w, err := NewWriter(dir, 1<<18, nil)
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Out(graph.NodeID(u)) {
				if err := w.Add(graph.NodeID(u), v); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.NumEdges())
}

// BenchmarkStorageCompact prices the k-way segment merge into CSR v2.
func BenchmarkStorageCompact(b *testing.B) {
	g, _ := benchSetup(b)
	segDir := filepath.Join(b.TempDir(), "segs")
	w, err := NewWriter(segDir, 1<<18, nil)
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out(graph.NodeID(u)) {
			if err := w.Add(graph.NodeID(u), v); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(b.TempDir(), "graph.v2")
		if _, err := Compact(segDir, out, CompactOptions{NumNodes: g.NumNodes()}); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.NumEdges())
}

// BenchmarkStorageWriteV2 prices encoding an in-RAM graph to v2.
func BenchmarkStorageWriteV2(b *testing.B) {
	g, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := WriteGraph(filepath.Join(b.TempDir(), "graph.v2"), g); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.NumEdges())
}

// BenchmarkStorageLoad compares bringing a saved graph into service:
// fully materialized into RAM versus opened as a verified mapping.
func BenchmarkStorageLoad(b *testing.B) {
	g, v2 := benchSetup(b)
	b.Run("ram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := Open(v2, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Materialize(); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
		reportEdges(b, g.NumEdges())
	})
	b.Run("mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := Open(v2, Options{})
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
		reportEdges(b, g.NumEdges())
	})
	b.Run("mmap-noverify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := Open(v2, Options{SkipVerify: true})
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
		reportEdges(b, g.NumEdges())
	})
}

// warmBuffer returns a row buffer as long as v's longest out-row, so a
// timed loop measures decoding, not the buffer's first growth.
func warmBuffer(v graph.View) []graph.NodeID {
	longest := 0
	for u := 0; u < v.NumNodes(); u++ {
		longest = max(longest, v.OutDegree(graph.NodeID(u)))
	}
	return make([]graph.NodeID, 0, longest)
}

// BenchmarkStorageSequentialScan prices a full adjacency sweep — the
// access pattern of degree counting, WCC rounds, and triangle counting —
// reading rows through one reused buffer, as the kernels do.
func BenchmarkStorageSequentialScan(b *testing.B) {
	g, v2 := benchSetup(b)
	scan := func(b *testing.B, v graph.View) {
		var sum int64
		row := warmBuffer(v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := 0; u < v.NumNodes(); u++ {
				row = v.Out(graph.NodeID(u), row...)
				for _, w := range row {
					sum += int64(w)
				}
			}
		}
		b.StopTimer()
		if sum == 1 {
			b.Log(sum) // defeat dead-code elimination
		}
		reportEdges(b, g.NumEdges())
	}
	b.Run("ram", func(b *testing.B) { scan(b, g) })
	b.Run("mmap", func(b *testing.B) {
		m, err := Open(v2, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		scan(b, m)
	})
}

// BenchmarkStorageRandomOut prices random row access through one
// reused buffer — the pattern of sampled analyses (clustering samples,
// BFS sources).
func BenchmarkStorageRandomOut(b *testing.B) {
	g, v2 := benchSetup(b)
	const probes = 1_000_000
	random := func(b *testing.B, v graph.View) {
		rng := rand.New(rand.NewPCG(7, 8))
		var sum int64
		row := warmBuffer(v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < probes; p++ {
				row = v.Out(graph.NodeID(rng.IntN(v.NumNodes())), row...)
				if len(row) > 0 {
					sum += int64(row[0])
				}
			}
		}
		b.StopTimer()
		if sum == 1 {
			b.Log(sum)
		}
		b.ReportMetric(float64(probes)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("ram", func(b *testing.B) { random(b, g) })
	b.Run("mmap", func(b *testing.B) {
		m, err := Open(v2, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		random(b, m)
	})
}

// BenchmarkStorageHasArc prices arc probes — the pattern of the
// geography analyses' reciprocity and non-neighbor tests. Half the
// probes hit an arc and half are random pairs, which almost always
// miss; both backends answer the same fixed probe list.
func BenchmarkStorageHasArc(b *testing.B) {
	g, v2 := benchSetup(b)
	const probes = 1_000_000
	rng := rand.New(rand.NewPCG(9, 10))
	pairs := make([][2]graph.NodeID, 0, probes)
	for len(pairs) < probes {
		u := graph.NodeID(rng.IntN(g.NumNodes()))
		if out := g.Out(u); len(pairs)%2 == 0 && len(out) > 0 {
			pairs = append(pairs, [2]graph.NodeID{u, out[rng.IntN(len(out))]})
		} else if len(pairs)%2 == 1 {
			pairs = append(pairs, [2]graph.NodeID{u, graph.NodeID(rng.IntN(g.NumNodes()))})
		}
	}
	probe := func(b *testing.B, v graph.View) {
		hits := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if v.HasArc(p[0], p[1]) {
					hits++
				}
			}
		}
		b.StopTimer()
		if hits < probes/2*b.N {
			b.Fatalf("%d hits, want at least %d", hits, probes/2*b.N)
		}
		b.ReportMetric(float64(probes)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
	}
	b.Run("ram", func(b *testing.B) { probe(b, g) })
	b.Run("mmap", func(b *testing.B) {
		m, err := Open(v2, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		probe(b, m)
	})
}

// BenchmarkStoragePathLengths prices the sampled path-length estimate —
// bit-parallel BFS waves, each reading every frontier row once for up to
// 32 sources — over both backends, so mapped BFS has a row of its own.
// The sample is fixed at 64 directed sources on one goroutine.
func BenchmarkStoragePathLengths(b *testing.B) {
	g, v2 := benchSetup(b)
	const sources = 64
	paths := func(b *testing.B, v graph.View) {
		for i := 0; i < b.N; i++ {
			dist := graph.SamplePathLengths(context.Background(), v, graph.Directed, graph.PathLengthOptions{
				MinSources: sources, MaxSources: sources, Parallelism: 1,
				Rand: rand.New(rand.NewPCG(11, 12)),
			})
			if dist.Sources != sources {
				b.Fatalf("%d sources, want %d", dist.Sources, sources)
			}
		}
		b.ReportMetric(float64(sources)*float64(b.N)/b.Elapsed().Seconds(), "sources/s")
	}
	b.Run("ram", func(b *testing.B) { paths(b, g) })
	b.Run("mmap", func(b *testing.B) {
		m, err := Open(v2, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		paths(b, m)
	})
}
