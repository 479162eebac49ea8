package graph

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Exact triangle counting over the undirected projection of the crawl
// graph (u—v iff u→v or v→u), replacing the sampled clustering estimate
// of §3.3.3 with exact counts. One kernel does the work: the Sandia LL
// orientation over a degree-ordered presort, which keeps every
// intersected row O(√m) long on the crawl's heavy-tailed degree
// distribution. It shards with the degree-balanced prefixWorkBounds
// machinery and honors the package determinism contract: per-node
// tallies are exact integer sums (atomic adds commute), so results are
// byte-identical at any parallelism.

// TriangleResult holds an exact triangle census of the undirected
// projection.
type TriangleResult struct {
	// Total is the number of distinct triangles in the projection.
	Total int64
	// PerNode[u] is the number of triangles containing node u;
	// Σ PerNode = 3·Total.
	PerNode []int64
	// Wedges is the number of unordered wedges (paths of length two),
	// Σ_u C(deg(u), 2) over the projection — the denominator of the
	// global transitivity ratio.
	Wedges int64
}

// Transitivity returns the global transitivity ratio 3·Total/Wedges
// (the fraction of wedges that close), or 0 for a wedge-free graph.
func (r *TriangleResult) Transitivity() float64 {
	if r.Wedges == 0 {
		return 0
	}
	return 3 * float64(r.Total) / float64(r.Wedges)
}

// undirected is the symmetrized projection of a Graph in CSR form:
// adj[off[u]:off[u+1]] lists, sorted ascending, every v ≠ u with u→v or
// v→u. The motif census builds it once and runs both the triangle
// kernel and the triad classification over it.
type undirected struct {
	off []int64
	adj []NodeID
	// dyad[i], when the projection is built tagged, says whether the
	// pair (owner, adj[i]) is an out, in or mutual dyad from the row
	// owner's side — the directed information the census needs, so it
	// never goes back to the View's rows.
	dyad []dyadKind
}

func (u *undirected) numNodes() int { return len(u.off) - 1 }

func (u *undirected) nbr(v NodeID) []NodeID { return u.adj[u.off[v]:u.off[v+1]] }

// kinds returns v's dyad tags, aligned with nbr(v).
func (u *undirected) kinds(v NodeID) []dyadKind { return u.dyad[u.off[v]:u.off[v+1]] }

func (u *undirected) deg(v NodeID) int { return int(u.off[v+1] - u.off[v]) }

// workBounds is the projection's analogue of Graph.workBounds: shard
// cuts balanced on undirected degree.
func (u *undirected) workBounds(parallelism int) []int {
	return prefixWorkBounds(u.numNodes(), parallelism, func(v int) int64 {
		return u.off[v] + int64(v)
	})
}

// buildUndirected symmetrizes g: each node's out- and in-lists (both
// already sorted) merge into one sorted, deduplicated neighbor list,
// with each neighbor's dyad kind recorded beside it when tagged. Two
// passes — size then fill — so the CSR arrays are allocated exactly
// once; both passes shard over the directed workBounds, and each shard
// decodes its rows into two reused buffers.
func buildUndirected(g View, parallelism int, tagged bool) *undirected {
	n := g.NumNodes()
	u := &undirected{off: make([]int64, n+1)}
	if n == 0 {
		return u
	}
	bounds := viewWorkBounds(g, parallelism)
	// Pass 1: per-node union sizes into off[v+1].
	runShards(bounds, func(_, lo, hi int) {
		var out, in []NodeID
		for v := lo; v < hi; v++ {
			out, in = g.Out(NodeID(v), out...), g.In(NodeID(v), in...)
			u.off[v+1] = int64(mergeRows(out, in, nil, nil))
		}
	})
	for v := 0; v < n; v++ {
		u.off[v+1] += u.off[v]
	}
	u.adj = make([]NodeID, u.off[n])
	if tagged {
		u.dyad = make([]dyadKind, u.off[n])
	}
	// Pass 2: fill each node's slice; shards own disjoint ranges.
	runShards(bounds, func(_, lo, hi int) {
		var out, in []NodeID
		for v := lo; v < hi; v++ {
			out, in = g.Out(NodeID(v), out...), g.In(NodeID(v), in...)
			var tags []dyadKind
			if tagged {
				tags = u.kinds(NodeID(v))
			}
			mergeRows(out, in, u.nbr(NodeID(v)), tags)
		}
	})
	return u
}

// mergeRows merges a node's sorted out- and in-lists into their sorted
// union and returns its size. When dst is non-nil the union is written
// there, and when tags is non-nil too, each element's dyad kind: out
// for an element of out only, in for in only, mutual for both.
func mergeRows(out, in, dst []NodeID, tags []dyadKind) int {
	i, j, k := 0, 0, 0
	for i < len(out) || j < len(in) {
		var w NodeID
		var kind dyadKind
		switch {
		case j == len(in) || (i < len(out) && out[i] < in[j]):
			w, kind = out[i], dyadOut
			i++
		case i == len(out) || in[j] < out[i]:
			w, kind = in[j], dyadIn
			j++
		default:
			w, kind = out[i], dyadMut
			i++
			j++
		}
		if dst != nil {
			dst[k] = w
			if tags != nil {
				tags[k] = kind
			}
		}
		k++
	}
	return k
}

// wedgeTotal returns Σ_v C(deg(v), 2) over the projection.
func (u *undirected) wedgeTotal(parallelism int) int64 {
	bounds := uniformBounds(u.numNodes(), parallelism)
	parts := make([]int64, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		var s int64
		for v := lo; v < hi; v++ {
			d := int64(u.deg(NodeID(v)))
			s += d * (d - 1) / 2
		}
		parts[shard] = s
	})
	var total int64
	for _, p := range parts {
		total += p
	}
	return total
}

// Triangles counts every triangle in the undirected projection of g
// exactly. The result — total, per-node counts, and wedge count — is
// byte-identical for any parallelism.
func Triangles(g View, parallelism int) *TriangleResult {
	return trianglesOn(buildUndirected(g, parallelism, false), parallelism)
}

// TrianglesAndMotifs runs Triangles and Motifs over one shared
// projection of g, building it once. Both results are exactly what the
// separate calls return.
func TrianglesAndMotifs(g View, parallelism int) (*TriangleResult, *MotifCensus) {
	u := buildUndirected(g, parallelism, true)
	return trianglesOn(u, parallelism), motifsOn(u, parallelism)
}

func trianglesOn(u *undirected, parallelism int) *TriangleResult {
	res := &TriangleResult{Wedges: u.wedgeTotal(parallelism), PerNode: make([]int64, u.numNodes())}
	triSandia(u, res.PerNode, parallelism)
	var sum int64
	for _, c := range res.PerNode {
		sum += c
	}
	res.Total = sum / 3
	return res
}

// oriented is the projection with each edge kept in one direction only,
// from lower to higher degree rank (ties by id), in rank space: row r
// lists the higher-rank endpoints of r's edges, sorted by rank. Every
// row is O(√m) long regardless of the original degree distribution.
type oriented struct {
	off []int64
	adj []uint32 // rank ids
	// perm[rank] = original node id.
	perm []NodeID
}

// orient builds the rank-ordered half graph: row r keeps the neighbors
// of higher rank. Rank order is (degree asc, id asc) — a total order,
// so the orientation is canonical and results cannot depend on
// scheduling.
func orient(u *undirected, parallelism int) *oriented {
	n := u.numNodes()
	o := &oriented{off: make([]int64, n+1), perm: make([]NodeID, n)}
	for v := range o.perm {
		o.perm[v] = NodeID(v)
	}
	slices.SortFunc(o.perm, func(a, b NodeID) int {
		if c := cmp.Compare(u.deg(a), u.deg(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := make([]uint32, n)
	for r, v := range o.perm {
		rank[v] = uint32(r)
	}
	bounds := uniformBounds(n, parallelism)
	// Pass 1: surviving-degree of each rank row.
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			c := int64(0)
			for _, w := range u.nbr(o.perm[r]) {
				if rank[w] > uint32(r) {
					c++
				}
			}
			o.off[r+1] = c
		}
	})
	for r := 0; r < n; r++ {
		o.off[r+1] += o.off[r]
	}
	o.adj = make([]uint32, o.off[n])
	// Pass 2: fill rows with surviving neighbors' ranks, sorted.
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := o.adj[o.off[r]:o.off[r]]
			for _, w := range u.nbr(o.perm[r]) {
				if rw := rank[w]; rw > uint32(r) {
					row = append(row, rw)
				}
			}
			slices.Sort(row)
		}
	})
	return o
}

// triSandia intersects oriented rows: for each kept edge (r, s), every
// common oriented neighbor t closes triangle {r,s,t}, found exactly
// once, at its lowest-rank corner. All three corners' tallies are
// atomic adds into the original id space.
func triSandia(u *undirected, per []int64, parallelism int) {
	o := orient(u, parallelism)
	n := len(o.perm)
	bounds := prefixWorkBounds(n, parallelism, func(r int) int64 {
		return o.off[r] + int64(r)
	})
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := o.adj[o.off[r]:o.off[r+1]]
			for i, s := range row {
				// The third corner ranks after s, so each triangle is
				// generated from its lowest-rank corner only.
				rest := row[i+1:]
				intersectSorted(rest, o.adj[o.off[s]:o.off[s+1]], func(k, _ int) {
					atomic.AddInt64(&per[o.perm[r]], 1)
					atomic.AddInt64(&per[o.perm[s]], 1)
					atomic.AddInt64(&per[o.perm[rest[k]]], 1)
				})
			}
		}
	})
}
