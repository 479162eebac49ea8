package graph

import "sort"

// Directed 3-node motif census: every unordered node triple classified
// into one of the 16 isomorphism classes of directed triads, in the
// standard M-A-N (mutual/asymmetric/null dyad) numbering. This is the
// analysis of Schiöberg et al.'s follow-up study of directed triangle
// motifs on the same crawl (see PAPERS.md); together with the exact
// triangle kernel it replaces the sampled clustering pipeline's
// closed-triple estimates with exact counts.
//
// The algorithm is Batagelj–Mrvar-style subquadratic censusing: open
// (dyadic) triad classes fall out of per-center neighbor combinatorics,
// closed classes out of explicit triangle enumeration on the undirected
// projection — which simultaneously corrects the open-class counts the
// combinatorics overcounted. Dyad-only classes (003, 012, 102) follow
// arithmetically from the totals. Everything shards on the
// degree-balanced bounds and merges exact integer partial sums, so the
// census is byte-identical at any parallelism.

// TriadClass identifies one of the 16 directed triad isomorphism
// classes, in standard M-A-N census order. The naming encodes the dyad
// composition — #mutual, #asymmetric, #null — plus a direction tag
// (Down, Up, Cyclic, Transitive) where one composition has several
// classes.
type TriadClass int

const (
	// Triad003: three null dyads (no edges).
	Triad003 TriadClass = iota
	// Triad012: a single asymmetric dyad (one arc).
	Triad012
	// Triad102: a single mutual dyad.
	Triad102
	// Triad021D: two arcs diverging from one source (a←b→c).
	Triad021D
	// Triad021U: two arcs converging on one sink (a→b←c).
	Triad021U
	// Triad021C: a directed chain (a→b→c).
	Triad021C
	// Triad111D: a mutual dyad receiving an arc (a↔b←c).
	Triad111D
	// Triad111U: a mutual dyad sending an arc (a↔b→c).
	Triad111U
	// Triad030T: a transitive triangle (a→b→c, a→c).
	Triad030T
	// Triad030C: a cyclic triangle (a→b→c→a).
	Triad030C
	// Triad201: two mutual dyads sharing a node (a↔b↔c).
	Triad201
	// Triad120D: mutual dyad plus a node sourcing arcs to both ends.
	Triad120D
	// Triad120U: mutual dyad plus a node sinking arcs from both ends.
	Triad120U
	// Triad120C: mutual dyad with a chain through the third node
	// (a→b↔c→a reversed: one arc in, one arc out).
	Triad120C
	// Triad210: two mutual dyads plus one asymmetric dyad.
	Triad210
	// Triad300: three mutual dyads (the complete mutual triangle).
	Triad300
	// NumTriadClasses is the number of triad isomorphism classes.
	NumTriadClasses = 16
)

var triadNames = [NumTriadClasses]string{
	"003", "012", "102", "021D", "021U", "021C", "111D", "111U",
	"030T", "030C", "201", "120D", "120U", "120C", "210", "300",
}

func (c TriadClass) String() string {
	if c >= 0 && int(c) < NumTriadClasses {
		return triadNames[c]
	}
	return "triad?"
}

// Connected reports whether the class induces a weakly connected
// subgraph (every class except 003, 012, 102).
func (c TriadClass) Connected() bool {
	return c >= 0 && int(c) < NumTriadClasses && triadConnected[c]
}

// Closed reports whether the class's undirected projection is a
// triangle.
func (c TriadClass) Closed() bool {
	return c >= 0 && int(c) < NumTriadClasses && triadClosed[c]
}

// triadConnected marks the 13 classes whose triple induces a connected
// (weakly) subgraph — every class except 003, 012, 102.
var triadConnected = [NumTriadClasses]bool{
	Triad021D: true, Triad021U: true, Triad021C: true,
	Triad111D: true, Triad111U: true,
	Triad030T: true, Triad030C: true, Triad201: true,
	Triad120D: true, Triad120U: true, Triad120C: true,
	Triad210: true, Triad300: true,
}

// triadClosed marks the 7 classes whose undirected projection is a
// triangle.
var triadClosed = [NumTriadClasses]bool{
	Triad030T: true, Triad030C: true,
	Triad120D: true, Triad120U: true, Triad120C: true,
	Triad210: true, Triad300: true,
}

// triadTransitive[c] is the number of transitive closures in class c:
// ordered node triples (a,b,x) of the triad with a→b, a→x, b→x all
// present. Summed over the census it equals the total number of closed
// directed wedges — the exact numerator behind the paper's §3.3.3
// clustering coefficient, which the tests cross-check against
// ClusteringCoefficient itself.
var triadTransitive = [NumTriadClasses]int64{
	Triad030T: 1, Triad120C: 1, Triad120D: 2, Triad120U: 2,
	Triad210: 3, Triad300: 6,
}

// MotifCensus is an exact count of every directed triad class.
type MotifCensus struct {
	// Counts[c] is the number of unordered node triples inducing class
	// c. Counts[Triad003] is -1 when C(n,3) overflows int64 (n around
	// 3.8M or more); every other class is always exact.
	Counts [NumTriadClasses]int64
	// Nodes, MutualDyads and AsymDyads describe the graph the census
	// ran on: node count, dyads connected in both directions, and
	// dyads connected in exactly one.
	Nodes       int
	MutualDyads int64
	AsymDyads   int64
}

// ConnectedTriples returns the number of triples inducing a weakly
// connected subgraph (the 13 connected classes).
func (m *MotifCensus) ConnectedTriples() int64 {
	var s int64
	for c, n := range m.Counts {
		if triadConnected[c] {
			s += n
		}
	}
	return s
}

// Triangles returns the number of triples whose undirected projection
// is a triangle (the 7 closed classes) — comparable to
// TriangleResult.Total.
func (m *MotifCensus) Triangles() int64 {
	var s int64
	for c, n := range m.Counts {
		if triadClosed[c] {
			s += n
		}
	}
	return s
}

// TransitiveClosures returns the number of closed directed wedges
// (ordered triples a→b, a→x, b→x) — the exact sum of the §3.3.3
// clustering-coefficient numerators over all nodes.
func (m *MotifCensus) TransitiveClosures() int64 {
	var s int64
	for c, n := range m.Counts {
		s += triadTransitive[c] * n
	}
	return s
}

// choose3 returns C(n,3), or -1 if it overflows int64.
func choose3(n int64) int64 {
	if n < 3 {
		return 0
	}
	// Among {n, n-1, n-2} exactly one is divisible by 3; divide it out
	// first, then halve the factor that is still even, so every
	// intermediate product is a true divisor-free partial of C(n,3).
	a, b, c := n, n-1, n-2
	switch {
	case a%3 == 0:
		a /= 3
	case b%3 == 0:
		b /= 3
	default:
		c /= 3
	}
	if a%2 == 0 {
		a /= 2
	} else if b%2 == 0 {
		b /= 2
	} else {
		c /= 2
	}
	const maxInt64 = 1<<63 - 1
	if a != 0 && b > maxInt64/a {
		return -1
	}
	ab := a * b
	if ab != 0 && c > maxInt64/ab {
		return -1
	}
	return ab * c
}

// Motifs runs the exact directed triad census of g. The result is
// byte-identical for any parallelism.
func Motifs(g View, parallelism int) *MotifCensus {
	return motifsOn(buildUndirected(g, parallelism, true), parallelism)
}

// motifsOn runs the census over a tagged projection; the dyad tags
// carry all the direction information it needs.
func motifsOn(u *undirected, parallelism int) *MotifCensus {
	n := u.numNodes()
	m := &MotifCensus{Nodes: n}
	if n == 0 {
		return m
	}

	// dyad[v] tallies v's undirected neighbors w by dyad kind: mutual
	// (v→w and w→v) or asymmetric, split by direction. The three
	// per-node tallies drive both the open-triad combinatorics and the
	// dyad totals.
	type dyadCounts struct{ out, in, mut int64 }
	dyads := make([]dyadCounts, n)
	bounds := u.workBounds(parallelism)
	partials := make([][NumTriadClasses]int64, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		var part [NumTriadClasses]int64
		for v := lo; v < hi; v++ {
			var d dyadCounts
			for _, k := range u.kinds(NodeID(v)) {
				switch k {
				case dyadOut:
					d.out++
				case dyadIn:
					d.in++
				default:
					d.mut++
				}
			}
			dyads[v] = d
			// Open-triad combinatorics, v as center: each unordered
			// pair of v's dyads forms a triple whose class, *assuming
			// the far pair is unconnected*, depends only on the two
			// dyad kinds. Pairs whose far nodes are connected are
			// overcounts, repaired during triangle enumeration below.
			part[Triad021D] += d.out * (d.out - 1) / 2
			part[Triad021U] += d.in * (d.in - 1) / 2
			part[Triad021C] += d.out * d.in
			part[Triad111U] += d.out * d.mut
			part[Triad111D] += d.in * d.mut
			part[Triad201] += d.mut * (d.mut - 1) / 2
		}
		partials[shard] = part
	})
	for _, part := range partials {
		for c, v := range part {
			m.Counts[c] += v
		}
	}

	// Closed triads: enumerate each undirected triangle a < b < c once
	// (at a), classify it by its three dyad tags, and retract the three
	// open-class contributions its corners made above — each corner saw
	// the other two as a dyad pair and miscounted the triple as open.
	closedPartials := make([][NumTriadClasses]int64, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		var part [NumTriadClasses]int64
		for a := lo; a < hi; a++ {
			na, ka := u.nbr(NodeID(a)), u.kinds(NodeID(a))
			// Neighbors above a only: the triangle belongs to its
			// lowest-id corner's shard.
			i := sort.Search(len(na), func(k int) bool { return int(na[k]) > a })
			for j := i; j < len(na); j++ {
				b, ab := na[j], ka[j]
				above, kb := na[j+1:], u.kinds(b)
				intersectSorted(above, u.nbr(b), func(x, y int) {
					ac, bc := ka[j+1+x], kb[y]
					part[closedTriad(ab, ac, bc)]++
					part[openTriad(ab, ac)]--
					part[openTriad(ab.flip(), bc)]--
					part[openTriad(ac.flip(), bc.flip())]--
				})
			}
		}
		closedPartials[shard] = part
	})
	for _, part := range closedPartials {
		for c, v := range part {
			m.Counts[c] += v
		}
	}

	// Dyad totals, then the dyad-only classes by subtraction: a single
	// arc (or mutual pair) spans n-2 triples; those where the third
	// node connects to either endpoint were already classified above.
	var mutual, asym int64
	for _, d := range dyads {
		mutual += d.mut
		asym += d.out // each asymmetric dyad counted once, at its source
	}
	mutual /= 2 // both endpoints counted it
	m.MutualDyads, m.AsymDyads = mutual, asym

	// How many asymmetric / mutual dyads each connected class contains.
	var asymIn = [NumTriadClasses]int64{
		Triad021D: 2, Triad021U: 2, Triad021C: 2,
		Triad111D: 1, Triad111U: 1,
		Triad030T: 3, Triad030C: 3,
		Triad120D: 2, Triad120U: 2, Triad120C: 2,
		Triad210: 1,
	}
	var mutIn = [NumTriadClasses]int64{
		Triad111D: 1, Triad111U: 1, Triad201: 2,
		Triad120D: 1, Triad120U: 1, Triad120C: 1,
		Triad210: 2, Triad300: 3,
	}
	asymTriples := asym * int64(n-2)
	mutTriples := mutual * int64(n-2)
	var connected int64
	for c, v := range m.Counts {
		asymTriples -= asymIn[c] * v
		mutTriples -= mutIn[c] * v
		connected += v
	}
	m.Counts[Triad012] = asymTriples
	m.Counts[Triad102] = mutTriples
	connected += asymTriples + mutTriples
	if total := choose3(int64(n)); total < 0 {
		m.Counts[Triad003] = -1
	} else {
		m.Counts[Triad003] = total - connected
	}
	return m
}

// dyadKind is a connected dyad's direction from one endpoint's side, as
// two bits: the arc leaving it and the arc reaching it.
type dyadKind uint8

const (
	dyadOut dyadKind = 1                // center→other only
	dyadIn  dyadKind = 2                // other→center only
	dyadMut          = dyadOut | dyadIn // both
)

// flip returns the same dyad seen from its other endpoint.
func (k dyadKind) flip() dyadKind { return k>>1 | (k&1)<<1 }

// openTriad is the class a center forms with two neighbors it reaches
// through dyads p and q, assuming those two are not linked.
func openTriad(p, q dyadKind) TriadClass {
	switch {
	case p == dyadMut && q == dyadMut:
		return Triad201
	case p == dyadMut || q == dyadMut:
		// One mutual, one asymmetric: direction of the asymmetric arc
		// (p&q, since mutual has both bits) picks 111U (outgoing) vs
		// 111D.
		if p&q == dyadOut {
			return Triad111U
		}
		return Triad111D
	case p == dyadOut && q == dyadOut:
		return Triad021D
	case p == dyadIn && q == dyadIn:
		return Triad021U
	default:
		return Triad021C
	}
}

// closedTriad classifies the triangle a < b < c from its dyads ab and
// ac (seen from a) and bc (seen from b).
func closedTriad(ab, ac, bc dyadKind) TriadClass {
	muts := 0
	for _, k := range [3]dyadKind{ab, ac, bc} {
		if k == dyadMut {
			muts++
		}
	}
	switch muts {
	case 3:
		return Triad300
	case 2:
		return Triad210
	case 1:
		// The mutual dyad plus two asymmetric arcs touching the third
		// node x: both sourced by it → 120D, both sunk into it → 120U,
		// one each → 120C. xp and xq are x's dyads, seen from x.
		var xp, xq dyadKind
		switch {
		case ab == dyadMut:
			xp, xq = ac.flip(), bc.flip()
		case ac == dyadMut:
			xp, xq = ab.flip(), bc
		default:
			xp, xq = ab, ac
		}
		switch {
		case xp == dyadOut && xq == dyadOut:
			return Triad120D
		case xp == dyadIn && xq == dyadIn:
			return Triad120U
		default:
			return Triad120C
		}
	default:
		// All asymmetric: cyclic iff the three arcs chain a→b→c→a or
		// its reverse; otherwise one node sources two arcs and the
		// triangle is transitive.
		if (ab == dyadOut) == (bc == dyadOut) && (bc == dyadOut) == (ac == dyadIn) {
			return Triad030C
		}
		return Triad030T
	}
}
