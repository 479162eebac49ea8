package graph_test

import (
	"slices"
	"testing"

	"gplus/internal/graph"
	"gplus/internal/synth"
)

// wedgeProbeTriangles counts each node's triangles by probing every pair
// of its projection neighbors (the union of its out- and in-rows) for a
// closing arc in either direction, through the View alone.
func wedgeProbeTriangles(v graph.View) []int64 {
	per := make([]int64, v.NumNodes())
	var out, in, nbr []graph.NodeID
	for x := range v.NumNodes() {
		out, in = v.Out(graph.NodeID(x), out...), v.In(graph.NodeID(x), in...)
		nbr = append(append(nbr[:0], out...), in...)
		slices.Sort(nbr)
		nbr = slices.Compact(nbr)
		for i, a := range nbr {
			for _, b := range nbr[i+1:] {
				if v.HasArc(a, b) || v.HasArc(b, a) {
					per[x]++
				}
			}
		}
	}
	return per
}

// TestTrianglesMatchWedgeProbeOnUniverse checks the triangle kernel on a
// calibrated heavy-tailed universe over both storage backends: per-node
// counts against a wedge probe written against the View, and the total
// against the directed motif census, which finds each triangle at its
// lowest-id corner over the unoriented projection.
func TestTrianglesMatchWedgeProbeOnUniverse(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	// The probe is the slow side (~10M wedges here), so it runs once,
	// over the RAM view.
	want := wedgeProbeTriangles(u.Graph)
	var sum int64
	for _, c := range want {
		sum += c
	}
	if sum == 0 {
		t.Fatal("universe has no triangles")
	}
	for name, v := range backends(t, u.Graph) {
		for _, par := range []int{1, 3} {
			res := graph.Triangles(v, par)
			for x, c := range res.PerNode {
				if c != want[x] {
					t.Fatalf("%s P=%d: node %d in %d triangles, wedge probe says %d", name, par, x, c, want[x])
				}
			}
			if res.Total*3 != sum {
				t.Errorf("%s P=%d: Total %d, wedge probe sums to %d/3", name, par, res.Total, sum)
			}
			if got := graph.Motifs(v, par).Triangles(); res.Total != got {
				t.Errorf("%s P=%d: Total %d, motif census closes %d triads", name, par, res.Total, got)
			}
		}
	}
}
