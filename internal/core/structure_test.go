package core

import (
	"context"
	"reflect"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/obs/trace"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

// TestWCCGiantFractionUsesGraphDenominator covers the regression where
// Study.WCC divided the giant component by the dataset's user-roster size
// while SCC divided by the graph's node count. Both must use the graph
// denominator (§3.3.4), even on a dataset where the roster disagrees.
func TestWCCGiantFractionUsesGraphDenominator(t *testing.T) {
	// 5-node graph: one weak component {0,1,2,3} plus isolated node 4 —
	// but a roster of 6 users. Graph denominator: 4/5. Roster: 4/6.
	g := graph.FromEdges(5, 0, 1, 1, 2, 2, 3)
	ids := []string{"a", "b", "c", "d", "e", "phantom"}
	ds := &dataset.Dataset{
		Graph:    g,
		IDs:      ids,
		Profiles: make([]profile.Profile, len(ids)),
		Crawled:  make([]bool, len(ids)),
	}
	if ds.NumUsers() == g.NumNodes() {
		t.Fatal("test needs users != graph nodes")
	}
	s := New(ds, Options{})
	wcc := s.WCC()
	if wcc.GiantSize != 4 {
		t.Fatalf("GiantSize = %d, want 4", wcc.GiantSize)
	}
	if want := 4.0 / 5.0; wcc.GiantFraction != want {
		t.Fatalf("GiantFraction = %v, want %v (graph-node denominator, not users)", wcc.GiantFraction, want)
	}
	// SCC and WCC must agree on the denominator convention.
	scc := s.SCC()
	if scc.GiantFraction != float64(scc.GiantSize)/float64(g.NumNodes()) {
		t.Fatalf("SCC fraction %v disagrees with graph denominator", scc.GiantFraction)
	}
}

// TestStructureParallelismInvariant runs the full structural bundle at
// different parallelism levels and demands identical results — the same
// contract the graph package promises, carried through the Study layer.
func TestStructureParallelismInvariant(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(5_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	run := func(par int) *StructureResult {
		s := New(ds, Options{
			Seed:             99,
			PathSources:      32,
			ClusteringSample: 2_000,
			Parallelism:      par,
		})
		st, err := s.Structure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st.Timings = nil // wall-clock legitimately differs between runs
		return st
	}
	base := run(1)
	for _, par := range []int{3, 8} {
		if got := run(par); !reflect.DeepEqual(got, base) {
			t.Fatalf("Structure at parallelism %d diverged from serial", par)
		}
	}
}

// TestStructureTimingsAndSpans checks the per-stage instrumentation: one
// timing per stage, and analyze.<stage> spans in the tracer's recorder.
func TestStructureTimingsAndSpans(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0, trace.Rules{})
	s := New(dataset.FromUniverse(u), Options{
		Seed:             7,
		PathSources:      16,
		ClusteringSample: 500,
		Tracer:           trace.New(trace.Config{Recorder: rec}),
	})
	st, err := s.Structure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"degrees", "reciprocity", "clustering", "scc", "wcc", "paths", "motifs"}
	if len(st.Timings) != len(wantStages) {
		t.Fatalf("got %d timings, want %d", len(st.Timings), len(wantStages))
	}
	seen := map[string]bool{}
	for _, tm := range st.Timings {
		if tm.Dur <= 0 {
			t.Errorf("stage %q has non-positive duration %v", tm.Stage, tm.Dur)
		}
		seen[tm.Stage] = true
	}
	spanNames := map[string]bool{}
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			spanNames[sp.Name] = true
		}
	}
	for _, stage := range wantStages {
		if !seen[stage] {
			t.Errorf("no timing recorded for stage %q", stage)
		}
		if !spanNames["analyze."+stage] {
			t.Errorf("no analyze.%s span recorded", stage)
		}
	}
	if !spanNames["analyze.structure"] {
		t.Error("no analyze.structure parent span recorded")
	}
}

// TestClusteringExactPathAndMotifs checks that a graph whose wedge
// count fits the exact budget takes the exact clustering path — every
// eligible node scanned regardless of the configured sample size, with
// the C(k) curve filled — and that the motif stage's internal
// triangle/census cross-check holds on study data.
func TestClusteringExactPathAndMotifs(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	s := New(ds, Options{Seed: 11, ClusteringSample: 100})
	cl := s.Clustering()
	if !cl.Exact {
		t.Fatal("small graph did not take the exact clustering path")
	}
	eligible := 0
	for v := 0; v < ds.Graph.NumNodes(); v++ {
		if ds.Graph.OutDegree(graph.NodeID(v)) > 1 {
			eligible++
		}
	}
	if cl.Sampled != eligible {
		t.Fatalf("exact path scanned %d nodes, want every eligible node (%d)", cl.Sampled, eligible)
	}
	if len(cl.ByDegree) == 0 {
		t.Fatal("exact path returned no C(k) curve")
	}
	m, err := s.Motifs()
	if err != nil {
		t.Fatal(err)
	}
	if m.Census == nil || m.Census.Triangles() != m.TriangleTotal {
		t.Fatalf("census triangles disagree with kernel total %d", m.TriangleTotal)
	}
	if m.Census.Nodes != ds.Graph.NumNodes() {
		t.Fatalf("census ran on %d nodes, graph has %d", m.Census.Nodes, ds.Graph.NumNodes())
	}
}
