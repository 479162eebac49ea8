package graph

import (
	"sync"
	"sync/atomic"
)

// SCCParallel computes strongly connected components with the
// forward-backward (FW-BW) divide-and-conquer algorithm plus trimming,
// fanned out over parallelism workers: each task owns a disjoint node
// set, peels off trivial components (nodes with no in- or out-edges
// inside the task), picks a pivot, extracts pivot's SCC as the
// intersection of its forward and backward reachable sets, and splits the
// remainder into three independent subtasks. Tasks run concurrently on a
// shared work queue, so disconnected or loosely coupled regions of the
// graph decompose in parallel.
//
// The component partition is unique, and labels are assigned canonically
// (first appearance by node id) after the fact, so the result is
// byte-identical to SCC's iterative Tarjan for any parallelism.
// parallelism <= 1 simply runs SCC.
func SCCParallel(g View, parallelism int) *SCCResult {
	n := g.NumNodes()
	if parallelism <= 1 || n == 0 {
		return SCC(g)
	}
	if parallelism > n {
		parallelism = n
	}

	s := &sccState{
		g:       g,
		comp:    make([]int32, n),
		taskOf:  make([]int32, n),
		inDegT:  make([]int32, n),
		outDegT: make([]int32, n),
		mark:    make([]uint8, n),
	}
	s.cond = sync.NewCond(&s.mu)

	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
		s.comp[i] = -1
	}
	s.pending = 1
	s.queue = append(s.queue, sccTask{id: 0, nodes: all})
	s.nextTask.Store(1)

	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()

	sizes := relabelByFirstAppearance(s.comp, int(s.nextComp.Load()))
	return &SCCResult{Comp: s.comp, Sizes: sizes, Count: len(sizes)}
}

// sccTask is one independent subproblem: a node set known to contain
// every SCC of its members in full.
type sccTask struct {
	id    int32
	nodes []NodeID
}

type sccState struct {
	g View
	// comp holds provisional component ids (-1 while unassigned); ids come
	// from nextComp in completion order and are canonicalized at the end.
	comp []int32
	// taskOf[u] is the id of the task currently owning u, or -1 once u has
	// been assigned a component. Only u's owning task writes the entry,
	// but neighbor scans of concurrent tasks read it, so all access goes
	// through taskOwner/setTaskOwner atomics; a stale read can only return
	// some other task's id, never the reader's own.
	taskOf  []int32
	inDegT  []int32 // task-restricted in-degree scratch, owned like taskOf
	outDegT []int32 // task-restricted out-degree scratch
	mark    []uint8 // per-node FW/BW visit bits, owned like taskOf

	nextComp atomic.Int32
	nextTask atomic.Int32

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []sccTask
	pending int // queued + in-flight tasks; 0 means the partition is done
}

// worker pops tasks until the whole graph is partitioned. row is the
// worker's row buffer, reused by every task it runs.
func (s *sccState) worker() {
	var row []NodeID
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && s.pending > 0 {
			s.cond.Wait()
		}
		if s.pending == 0 {
			s.mu.Unlock()
			return
		}
		t := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.mu.Unlock()

		subtasks := s.process(t, &row)

		s.mu.Lock()
		s.pending += len(subtasks) - 1
		s.queue = append(s.queue, subtasks...)
		if s.pending == 0 {
			s.cond.Broadcast()
		} else {
			for range subtasks {
				s.cond.Signal()
			}
		}
		s.mu.Unlock()
	}
}

// process handles one task: trim, pivot, split. It returns the subtasks
// (possibly none).
func (s *sccState) process(t sccTask, row *[]NodeID) []sccTask {
	g := s.g
	remaining := s.trim(t, row)
	if len(remaining) == 0 {
		return nil
	}

	// Pivot SCC = forward-reachable ∩ backward-reachable within the task.
	pivot := remaining[0]
	const fwBit, bwBit = uint8(1), uint8(2)
	s.reach(t.id, pivot, fwBit, g.Out, row)
	s.reach(t.id, pivot, bwBit, g.In, row)

	cid := s.nextComp.Add(1) - 1
	var fwOnly, bwOnly, rest []NodeID
	for _, u := range remaining {
		m := s.mark[u]
		s.mark[u] = 0
		switch {
		case m == fwBit|bwBit:
			s.comp[u] = cid
			setTaskOwner(s.taskOf, u, -1)
		case m == fwBit:
			fwOnly = append(fwOnly, u)
		case m == bwBit:
			bwOnly = append(bwOnly, u)
		default:
			rest = append(rest, u)
		}
	}

	// Every SCC of the original task lies entirely inside exactly one of
	// the three leftover sets, so they recurse independently.
	var subtasks []sccTask
	for _, nodes := range [][]NodeID{fwOnly, bwOnly, rest} {
		if len(nodes) == 0 {
			continue
		}
		id := s.nextTask.Add(1) - 1
		for _, u := range nodes {
			setTaskOwner(s.taskOf, u, id)
		}
		subtasks = append(subtasks, sccTask{id: id, nodes: nodes})
	}
	return subtasks
}

// trim repeatedly removes nodes with no in-edges or no out-edges inside
// the task — each is necessarily a singleton SCC — and returns the
// surviving nodes. Trimming disposes of chains, trees, and the long
// acyclic tendrils of crawl graphs without any BFS rounds.
func (s *sccState) trim(t sccTask, row *[]NodeID) []NodeID {
	g := s.g
	var queue []NodeID
	for _, u := range t.nodes {
		in, out := int32(0), int32(0)
		*row = g.In(u, *row...)
		for _, v := range *row {
			if taskOwner(s.taskOf, v) == t.id {
				in++
			}
		}
		*row = g.Out(u, *row...)
		for _, v := range *row {
			if taskOwner(s.taskOf, v) == t.id {
				out++
			}
		}
		s.inDegT[u], s.outDegT[u] = in, out
		if in == 0 || out == 0 {
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if taskOwner(s.taskOf, u) != t.id {
			continue // already trimmed via its other zero degree
		}
		s.comp[u] = s.nextComp.Add(1) - 1
		setTaskOwner(s.taskOf, u, -1)
		*row = g.Out(u, *row...)
		for _, v := range *row {
			if taskOwner(s.taskOf, v) == t.id {
				if s.inDegT[v]--; s.inDegT[v] == 0 && s.outDegT[v] > 0 {
					queue = append(queue, v)
				}
			}
		}
		*row = g.In(u, *row...)
		for _, v := range *row {
			if taskOwner(s.taskOf, v) == t.id {
				if s.outDegT[v]--; s.outDegT[v] == 0 && s.inDegT[v] > 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	remaining := t.nodes[:0]
	for _, u := range t.nodes {
		if taskOwner(s.taskOf, u) == t.id {
			remaining = append(remaining, u)
		}
	}
	return remaining
}

// taskOwner and setTaskOwner are the atomic accessors for sccState.taskOf.
func taskOwner(taskOf []int32, u NodeID) int32 {
	return atomic.LoadInt32(&taskOf[u])
}

func setTaskOwner(taskOf []int32, u NodeID, id int32) {
	atomic.StoreInt32(&taskOf[u], id)
}

// reach marks bit on every node reachable from src through adj edges that
// stay inside task id, reading rows into row.
func (s *sccState) reach(id int32, src NodeID, bit uint8, adj func(NodeID, ...NodeID) []NodeID, row *[]NodeID) {
	queue := []NodeID{src}
	s.mark[src] |= bit
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		*row = adj(u, *row...)
		for _, v := range *row {
			if taskOwner(s.taskOf, v) == id && s.mark[v]&bit == 0 {
				s.mark[v] |= bit
				queue = append(queue, v)
			}
		}
	}
}
