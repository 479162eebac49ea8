package graph

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
)

// Direction selects how BFS traverses edges.
type Direction int

const (
	// Directed follows out-edges only, matching shortest paths in the
	// directed social graph G.
	Directed Direction = iota
	// Undirected follows edges in both directions, matching the paper's
	// "undirected version" of G.
	Undirected
)

// String names the traversal direction.
func (d Direction) String() string {
	if d == Undirected {
		return "undirected"
	}
	return "directed"
}

// BFSDistances returns the hop distance from src to every node, or -1 for
// unreachable nodes. The dist slice may be passed in to avoid allocation;
// if it is nil or too short a new slice is allocated.
func BFSDistances(g View, src NodeID, dir Direction, dist []int32) []int32 {
	s := bfsScratch{dist: dist}
	return s.run(g, src, true, dir == Undirected)
}

// bfsScratch is reusable single-source BFS state — distances, queue and
// row buffer — behind BFSDistances. The sampled analyses run many
// sources at once on waveScratch instead.
type bfsScratch struct {
	dist  []int32
	queue []NodeID
	row   []NodeID
}

// run fills and returns s.dist with hop distances from src, following
// out-edges when out is set and in-edges when in is set.
func (s *bfsScratch) run(g View, src NodeID, out, in bool) []int32 {
	n := g.NumNodes()
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
	}
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	queue, row := append(s.queue[:0], src), s.row
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		if out {
			row = g.Out(u, row...)
			queue = relax(row, dist, du, queue)
		}
		if in {
			row = g.In(u, row...)
			queue = relax(row, dist, du, queue)
		}
	}
	s.dist, s.queue, s.row = dist, queue, row
	return dist
}

// relax sets every still-unreached node of row to distance d and
// queues it.
func relax(row []NodeID, dist []int32, d int32, queue []NodeID) []NodeID {
	for _, v := range row {
		if dist[v] < 0 {
			dist[v] = d
			queue = append(queue, v)
		}
	}
	return queue
}

// PathLengthDist is an estimated distribution of pairwise hop distances.
type PathLengthDist struct {
	// Counts[h] is the number of sampled (source, node) pairs at distance h.
	Counts []int64
	// Sources is the number of BFS sources actually used.
	Sources int
	// Reachable is the total number of reachable pairs counted.
	Reachable int64
}

// Probability returns the fraction of reachable pairs at each hop count,
// i.e. the series plotted in Figure 5.
func (p *PathLengthDist) Probability() []float64 {
	out := make([]float64, len(p.Counts))
	if p.Reachable == 0 {
		return out
	}
	for i, c := range p.Counts {
		out[i] = float64(c) / float64(p.Reachable)
	}
	return out
}

// Mean returns the average path length over sampled reachable pairs.
func (p *PathLengthDist) Mean() float64 {
	if p.Reachable == 0 {
		return 0
	}
	var sum float64
	for h, c := range p.Counts {
		sum += float64(h) * float64(c)
	}
	return sum / float64(p.Reachable)
}

// Mode returns the most common path length (the paper reports mode 6
// directed, 5 undirected). Distance 0 (source to itself) is excluded.
func (p *PathLengthDist) Mode() int {
	best, bestCount := 0, int64(-1)
	for h, c := range p.Counts {
		if h == 0 {
			continue
		}
		if c > bestCount {
			best, bestCount = h, c
		}
	}
	return best
}

// MaxObserved returns the largest distance seen in the sample, a lower
// bound on the diameter.
func (p *PathLengthDist) MaxObserved() int {
	for h := len(p.Counts) - 1; h >= 0; h-- {
		if p.Counts[h] > 0 {
			return h
		}
	}
	return 0
}

// PathLengthOptions controls SamplePathLengths.
type PathLengthOptions struct {
	// MinSources and MaxSources bound the number of BFS sources. The paper
	// started with 2,000 sources and grew to 10,000, stopping once the
	// distribution no longer changed.
	MinSources int
	MaxSources int
	// Tolerance is the maximum L-infinity change between the normalized
	// distributions of consecutive batches that counts as converged.
	Tolerance float64
	// BatchSize is the number of sources added per convergence check.
	// The default, 32, is waveWidth: one full wave at Parallelism 1.
	BatchSize int
	// Parallelism runs BFS sources on this many goroutines. Results are
	// identical for any value: sources are pre-drawn from Rand in order
	// and histograms merge by summation.
	Parallelism int
	// Rand supplies source sampling. Required.
	Rand *rand.Rand
}

func (o *PathLengthOptions) setDefaults() {
	if o.MinSources <= 0 {
		o.MinSources = 64
	}
	if o.MaxSources <= 0 {
		o.MaxSources = 1024
	}
	if o.MaxSources < o.MinSources {
		o.MaxSources = o.MinSources
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-3
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
}

// SamplePathLengths estimates the pairwise hop-distance distribution by
// running full BFS from randomly sampled sources, the procedure of §3.3.5.
// Sources are drawn up-front in a fixed order and consumed BatchSize at a
// time; each batch is traversed as bit-parallel waves (see bfsBatch), and
// the distribution is checked for convergence between batches. It stops
// early once the distribution stabilizes or ctx is cancelled, returning
// the estimate over the sources admitted so far. The result is
// independent of Parallelism: batch histograms merge by exact integer
// sums.
func SamplePathLengths(ctx context.Context, g View, dir Direction, opt PathLengthOptions) *PathLengthDist {
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
	scratch := make([]waveScratch, opt.Parallelism)
	for res.Sources < opt.MaxSources {
		batch := opt.BatchSize
		if res.Sources+batch > opt.MaxSources {
			batch = opt.MaxSources - res.Sources
		}
		if ctx.Err() != nil {
			return res
		}
		counts, done := bfsBatch(ctx, g, dir, sources[res.Sources:res.Sources+batch], scratch)
		res.Counts = addCounts(res.Counts, counts)
		for _, c := range counts {
			res.Reachable += c
		}
		// Count only the sources admitted before cancellation: on a
		// mid-batch cancel done < batch, and crediting the full batch
		// would make Sources (and the convergence check) lie.
		res.Sources += done
		if done < batch {
			return res
		}

		prob := res.Probability()
		if res.Sources >= opt.MinSources && prevProb != nil && linfDelta(prevProb, prob) < opt.Tolerance {
			break
		}
		prevProb = prob
	}
	return res
}

// bfsBatch admits sources in order, consulting ctx.Err once per source
// and stopping at the first cancellation, then traverses the admitted
// prefix sources[:done]: it is cut into one contiguous chunk per scratch
// (one goroutine each), and every chunk runs as waves of up to waveWidth
// sources. It returns the summed distance histogram along with done. An
// admitted wave always runs to completion, so the pair (histogram, done)
// describes exactly sources[:done] by construction, at any parallelism;
// the caller advances its Sources cursor by done.
func bfsBatch(ctx context.Context, g View, dir Direction, sources []NodeID, scratch []waveScratch) ([]int64, int) {
	done := 0
	for done < len(sources) && ctx.Err() == nil {
		done++
	}
	chunks := min(len(scratch), done)
	hists := make([][]int64, chunks)
	var wg sync.WaitGroup
	for w := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := sources[w*done/chunks : (w+1)*done/chunks]; len(chunk) > 0; {
				k := min(len(chunk), waveWidth)
				hists[w] = addCounts(hists[w], scratch[w].run(g, chunk[:k], true, dir == Undirected, false))
				chunk = chunk[k:]
			}
		}()
	}
	wg.Wait()
	var out []int64
	for _, h := range hists {
		out = addCounts(out, h)
	}
	return out, done
}

// addCounts adds the histogram src into dst, growing dst to src's length.
func addCounts(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for h, c := range src {
		dst[h] += c
	}
	return dst
}

// waveWidth is how many sources one wave traverses together: one bit of
// a uint32 mask each. It matches the default BatchSize.
const waveWidth = 32

// waveScratch is one goroutine's reusable multi-source BFS state. A wave
// runs up to waveWidth sources through a single traversal that reads each
// frontier node's row once per level on behalf of all of them (Then et
// al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
// VLDB 2014). Bit i of every mask belongs to source i: seen[v] holds the
// sources that have reached v, visit[v] those whose frontier holds v at
// the current level, and next[v] those that first reach v at the next
// one.
//
// The frontier lists name the nodes with a nonzero visit (queued: next)
// mask. Their capacity is fixed at n/8; a level whose list would
// overflow is expanded by a dense sweep of visit instead, which also
// reads rows in id order when most nodes are active. Per node that is
// 12 bytes of masks plus at most 1 byte of lists, and once warm a wave
// allocates nothing.
type waveScratch struct {
	seen, visit, next []uint32
	frontier, queued  []NodeID
	dense, overflow   bool // frontier / queued outgrew its list
	row               []NodeID
	counts            []int64
	// With track set, far[i] and farD[i] are the lowest-id node at the
	// deepest level source i reaches, and that level: the node a serial
	// scan of BFS distances for d > farD picks.
	track bool
	far   [waveWidth]NodeID
	farD  [waveWidth]int32
}

// run traverses g from srcs (at most waveWidth of them, repeats allowed:
// each gets its own bit), following out-edges when out is set and
// in-edges when in is set. It returns the histogram of (source, node)
// pairs by hop distance, valid until the next run; counts[0] is
// len(srcs). With track set it also fills far and farD.
func (s *waveScratch) run(g View, srcs []NodeID, out, in, track bool) []int64 {
	n := g.NumNodes()
	if cap(s.seen) < n {
		s.seen, s.visit, s.next = make([]uint32, n), make([]uint32, n), make([]uint32, n)
		s.frontier, s.queued = make([]NodeID, 0, n/8), make([]NodeID, 0, n/8)
	}
	s.seen, s.visit, s.next = s.seen[:n], s.visit[:n], s.next[:n]
	clear(s.seen)
	s.track = track
	s.queued, s.overflow = s.queued[:0], false
	for i, src := range srcs {
		bit := uint32(1) << i
		if s.next[src] == 0 {
			s.enqueue(src)
		}
		s.next[src] |= bit
		s.seen[src] |= bit
		s.far[i], s.farD[i] = src, 0
	}
	s.advance()
	counts := append(s.counts[:0], int64(len(srcs)))
	for d := int32(1); ; d++ {
		var reached int64
		if s.dense {
			for v, vis := range s.visit {
				if vis != 0 {
					reached += s.expand(g, NodeID(v), out, in, d)
				}
			}
		} else {
			for _, v := range s.frontier {
				reached += s.expand(g, v, out, in, d)
			}
		}
		s.advance()
		if reached == 0 {
			break
		}
		counts = append(counts, reached)
	}
	s.counts = counts
	return counts
}

// advance makes the queued level the current frontier. Every visit mask
// was cleared as its node expanded, so the old visit array comes back
// all zero as the new next.
func (s *waveScratch) advance() {
	s.visit, s.next = s.next, s.visit
	s.frontier, s.queued = s.queued, s.frontier[:0]
	s.dense, s.overflow = s.overflow, false
}

// enqueue lists w in the next frontier, or marks that level dense once
// the list is full.
func (s *waveScratch) enqueue(w NodeID) {
	if len(s.queued) < cap(s.queued) {
		s.queued = append(s.queued, w)
	} else {
		s.overflow = true
	}
}

// expand reads v's row(s) once for every source whose frontier holds v,
// spreading those sources to v's neighbors at hop d, and returns how many
// (source, node) pairs it reached for the first time.
func (s *waveScratch) expand(g View, v NodeID, out, in bool, d int32) int64 {
	vis := s.visit[v]
	s.visit[v] = 0
	var reached int64
	if out {
		s.row = g.Out(v, s.row...)
		reached += s.spread(s.row, vis, d)
	}
	if in {
		s.row = g.In(v, s.row...)
		reached += s.spread(s.row, vis, d)
	}
	return reached
}

// spread hands the source bits vis to every node of row that has not
// seen them yet.
func (s *waveScratch) spread(row []NodeID, vis uint32, d int32) int64 {
	seen, next := s.seen, s.next
	var reached int64
	for _, w := range row {
		nw := vis &^ seen[w]
		if nw == 0 {
			continue
		}
		if next[w] == 0 {
			s.enqueue(w)
		}
		next[w] |= nw
		seen[w] |= nw
		reached += int64(bits.OnesCount32(nw))
		if s.track {
			for m := nw; m != 0; m &= m - 1 {
				// Levels only grow, so d < farD[i] never happens.
				i := bits.TrailingZeros32(m)
				if d > s.farD[i] || w < s.far[i] {
					s.far[i], s.farD[i] = w, d
				}
			}
		}
	}
	return reached
}

func linfDelta(a, b []float64) float64 {
	var max float64
	long := a
	if len(b) > len(long) {
		long = b
	}
	for i := range long {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d := av - bv
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// DoubleSweepDiameter returns a lower bound on the diameter (longest
// shortest path) using repeated double sweeps: BFS from a node, then BFS
// again from the farthest node found (the lowest id among ties). For
// directed graphs the second sweep runs backwards over in-edges, the
// standard directed variant, so that a path ending at the far node is
// measured end to end. sweeps controls how many restarts are tried from
// random nodes; they are drawn from rng up front, and each hop runs all
// of them as one wave.
func DoubleSweepDiameter(g View, dir Direction, sweeps int, rng *rand.Rand) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if sweeps <= 0 {
		sweeps = 4
	}
	starts := make([]NodeID, sweeps)
	for i := range starts {
		starts[i] = NodeID(rng.IntN(n))
	}
	best := int32(0)
	var s waveScratch
	for len(starts) > 0 {
		wave := starts[:min(len(starts), waveWidth)]
		for hop := 0; hop < 2; hop++ {
			// The directed second sweep runs over in-edges only.
			reverse := dir == Directed && hop == 1
			s.run(g, wave, !reverse, dir == Undirected || reverse, true)
			best = max(best, slices.Max(s.farD[:len(wave)]))
			copy(wave, s.far[:len(wave)])
		}
		starts = starts[len(wave):]
	}
	return int(best)
}
