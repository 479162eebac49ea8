package graph

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"
)

// bfsBatchSeq is the per-source oracle for bfsBatch: one full BFS per
// source, in order, with one ctx.Err check before each. It returns the
// summed histogram and the number of sources it ran.
func bfsBatchSeq(ctx context.Context, g View, dir Direction, sources []NodeID, s *bfsScratch) ([]int64, int) {
	var counts []int64
	for i, src := range sources {
		if ctx.Err() != nil {
			return counts, i
		}
		for _, d := range s.run(g, src, true, dir == Undirected) {
			if d < 0 {
				continue
			}
			for int(d) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	return counts, len(sources)
}

// samplePathLengthsSeq is the sampler over the per-source oracle: the
// same source draws, batches and convergence check as SamplePathLengths,
// with every batch run by bfsBatchSeq.
func samplePathLengthsSeq(g View, dir Direction, opt PathLengthOptions) *PathLengthDist {
	opt.setDefaults()
	n := g.NumNodes()
	res := &PathLengthDist{}
	if n == 0 {
		return res
	}
	sources := make([]NodeID, opt.MaxSources)
	for i := range sources {
		sources[i] = NodeID(opt.Rand.IntN(n))
	}
	var prevProb []float64
	var s bfsScratch
	for res.Sources < opt.MaxSources {
		batch := min(opt.BatchSize, opt.MaxSources-res.Sources)
		counts, _ := bfsBatchSeq(context.Background(), g, dir, sources[res.Sources:res.Sources+batch], &s)
		for h, c := range counts {
			for h >= len(res.Counts) {
				res.Counts = append(res.Counts, 0)
			}
			res.Counts[h] += c
			res.Reachable += c
		}
		res.Sources += batch
		prob := res.Probability()
		if res.Sources >= opt.MinSources && prevProb != nil && linfDelta(prevProb, prob) < opt.Tolerance {
			break
		}
		prevProb = prob
	}
	return res
}

// doubleSweepDiameterSeq is the serial double sweep: one full BFS per
// hop, the far node picked by a d > farD scan in id order.
func doubleSweepDiameterSeq(g View, dir Direction, sweeps int, rng *rand.Rand) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if sweeps <= 0 {
		sweeps = 4
	}
	best := 0
	var scratch bfsScratch
	for s := 0; s < sweeps; s++ {
		src := NodeID(rng.IntN(n))
		for hop := 0; hop < 2; hop++ {
			reverse := dir == Directed && hop == 1
			dist := scratch.run(g, src, !reverse, dir == Undirected || reverse)
			far, farD := src, int32(0)
			for v, d := range dist {
				if d > farD {
					far, farD = NodeID(v), d
				}
			}
			best = max(best, int(farD))
			src = far
		}
	}
	return best
}

// TestWaveBatchMatchesPerSourceBFS checks the wave kernel against the
// per-source oracle on every test graph, in both directions, at several
// parallelisms, for batches below, at and above one wave. Every batch
// repeats a source and, where the graph has one, starts from an isolated
// node; the scratch is reused across batches to catch stale masks.
func TestWaveBatchMatchesPerSourceBFS(t *testing.T) {
	for name, g := range testGraphs() {
		n := g.NumNodes()
		isolated := -1
		for u := 0; u < n && isolated < 0; u++ {
			if g.OutDegree(NodeID(u))+g.InDegree(NodeID(u)) == 0 {
				isolated = u
			}
		}
		for _, par := range []int{1, 2, 8} {
			scratch := make([]waveScratch, par)
			for _, dir := range []Direction{Directed, Undirected} {
				counts := []int{1, 31, 32, 33, 70}
				if n == 0 {
					counts = []int{0}
				}
				for _, k := range counts {
					rng := rand.New(rand.NewPCG(uint64(k), uint64(par)))
					sources := make([]NodeID, k)
					for i := range sources {
						sources[i] = NodeID(rng.IntN(max(n, 1)))
					}
					if k > 1 {
						sources[k-1] = sources[0]
					}
					if k > 2 && isolated >= 0 {
						sources[k/2] = NodeID(isolated)
					}
					got, done := bfsBatch(context.Background(), g, dir, sources, scratch)
					var s bfsScratch
					want, wantDone := bfsBatchSeq(context.Background(), g, dir, sources, &s)
					if done != wantDone || !reflect.DeepEqual(got, want) {
						t.Errorf("%s %v P=%d k=%d: wave (%v, %d), oracle (%v, %d)",
							name, dir, par, k, got, done, want, wantDone)
					}
				}
			}
		}
	}
}

// tieGrid is a w×h grid whose adjacent cells are linked one way, the
// other, or both at random, plus a few isolated nodes at the end. Grid
// distances tie everywhere, so the far node of a sweep is rarely unique
// and the lowest-id tie-break is exercised.
func tieGrid(w, h int, rng *rand.Rand) *Graph {
	b := NewBuilder(w*h+3, 0)
	link := func(u, v int) {
		switch rng.IntN(3) {
		case 0:
			b.AddEdge(NodeID(u), NodeID(v))
		case 1:
			b.AddEdge(NodeID(v), NodeID(u))
		default:
			b.AddEdge(NodeID(u), NodeID(v))
			b.AddEdge(NodeID(v), NodeID(u))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				link(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				link(y*w+x, (y+1)*w+x)
			}
		}
	}
	return b.Build()
}

// TestDoubleSweepMatchesSerial checks the two-wave double sweep against
// the serial one over many rng seeds, in both directions, with sweep
// counts below and above one wave.
func TestDoubleSweepMatchesSerial(t *testing.T) {
	graphs := testGraphs()
	graphs["tiegrid"] = tieGrid(9, 7, rand.New(rand.NewPCG(11, 12)))
	graphs["tiegrid-square"] = tieGrid(6, 6, rand.New(rand.NewPCG(0, 0)))
	for name, g := range graphs {
		for _, dir := range []Direction{Directed, Undirected} {
			for seed := uint64(0); seed < 100; seed++ {
				sweeps := []int{1, 4, 33}[seed%3]
				got := DoubleSweepDiameter(g, dir, sweeps, rand.New(rand.NewPCG(seed, 1)))
				want := doubleSweepDiameterSeq(g, dir, sweeps, rand.New(rand.NewPCG(seed, 1)))
				if got != want {
					t.Errorf("%s %v seed=%d sweeps=%d: wave %d, serial %d", name, dir, seed, sweeps, got, want)
				}
			}
		}
	}
}

// TestDoubleSweepFarNodeTieBreak pins the far node a wave reports on a
// tie: from node 0, nodes 5 and 2 are both two hops away and 5 is reached
// first (through the lower-id middle node 1), but the serial scan's
// choice, the lowest id 2, wins. A repeated source gets its own answer.
func TestDoubleSweepFarNodeTieBreak(t *testing.T) {
	g := FromEdges(6, 0, 1, 0, 3, 1, 5, 3, 2)
	var s waveScratch
	s.run(g, []NodeID{0, 1, 0}, true, false, true)
	for i, want := range []struct {
		far NodeID
		d   int32
	}{{2, 2}, {5, 1}, {2, 2}} {
		if s.far[i] != want.far || s.farD[i] != want.d {
			t.Errorf("source %d: far %d at %d, want %d at %d", i, s.far[i], s.farD[i], want.far, want.d)
		}
	}
}
