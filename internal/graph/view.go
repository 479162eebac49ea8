package graph

// View is the read surface every analysis kernel in this package is
// written against. Two implementations exist: the in-RAM *Graph and the
// memory-mapped diskcsr.Mapped form, which pages adjacency in lazily
// from a compressed file. The contract mirrors Graph exactly:
//
//   - Nodes are dense ids 0..NumNodes()-1.
//   - Out and In return u's strictly ascending neighbor list. buf is an
//     optional caller-owned buffer: a *Graph ignores it and returns its
//     shared CSR storage, a Mapped decodes into buf[:0] and grows it
//     only when it is too short (and allocates when none is given). A
//     returned row is valid until its buffer is reused, and must not be
//     modified. Kernels keep one buffer per goroutine for every row they
//     hold at once and pass the last row back in: row = g.Out(u, row...).
//     A *Graph never writes into buf, so handing back one of its own rows
//     is harmless; a buffer must not move between views.
//   - HasArc reports whether the arc u->v exists without materializing a
//     row on either backend.
//   - All methods are safe for concurrent use; buffers are not.
//
// Kernels accept a View rather than *Graph so the same code runs — and
// by the package's determinism contract produces byte-identical results
// — over both backends.
type View interface {
	NumNodes() int
	NumEdges() int64
	Out(u NodeID, buf ...NodeID) []NodeID
	In(u NodeID, buf ...NodeID) []NodeID
	OutDegree(u NodeID) int
	InDegree(u NodeID) int
	HasArc(u, v NodeID) bool
}

// WorkPrefixer is an optional View extension for degree-balanced
// sharding. WorkPrefix(u) is the monotone prefix weight of nodes
// [0, u): the sum of outdeg+indeg+1 over them, so WorkPrefix(0) = 0 and
// WorkPrefix(NumNodes()) is the total work. Views that can answer this
// in O(1) (both backends here: it reads straight off the CSR offset
// arrays) get the same heavy-tail-aware shard cuts as *Graph; others
// fall back to node-uniform sharding, which by the determinism contract
// changes only the speed of a kernel, never its output.
type WorkPrefixer interface {
	WorkPrefix(u int) int64
}

// viewWorkBounds is the View analogue of Graph.workBounds: degree-
// balanced cuts when the view can price them, uniform cuts otherwise.
func viewWorkBounds(g View, parallelism int) []int {
	if wp, ok := g.(WorkPrefixer); ok {
		return prefixWorkBounds(g.NumNodes(), parallelism, wp.WorkPrefix)
	}
	return uniformBounds(g.NumNodes(), parallelism)
}

// AvgDegree returns edges/nodes for any view; the method on *Graph
// remains for existing callers.
func AvgDegree(g View) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes())
}
