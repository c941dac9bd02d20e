// Package dag implements the weighted directed acyclic task-graph model used
// throughout the library.
//
// Applications are represented as weighted DAGs where nodes correspond to
// tasks, edges to task dependences, and node weights to task processing
// times expressed in processor cycles at the maximum clock frequency
// (de Langen & Juurlink, Section 3.1). The package provides construction,
// validation, and the structural analyses (topological order, critical path,
// bottom/top levels, parallelism) the scheduling heuristics rely on.
package dag

import (
	"errors"
	"fmt"
)

// Common construction and analysis errors.
var (
	// ErrCycle is returned when the edge set contains a directed cycle.
	ErrCycle = errors.New("dag: graph contains a cycle")
	// ErrBadWeight is returned for non-positive task weights.
	ErrBadWeight = errors.New("dag: task weight must be positive")
	// ErrBadTask is returned when an edge references an unknown task.
	ErrBadTask = errors.New("dag: task index out of range")
	// ErrSelfEdge is returned for an edge from a task to itself.
	ErrSelfEdge = errors.New("dag: self edge")
	// ErrDupEdge is returned when the same edge is added twice.
	ErrDupEdge = errors.New("dag: duplicate edge")
	// ErrEmpty is returned when a graph with no tasks is built.
	ErrEmpty = errors.New("dag: graph has no tasks")
)

// Graph is an immutable weighted task DAG. Create one with a Builder.
//
// A built Graph is never modified: every analysis is computed in
// Builder.Build, and methods that derive a graph (Rename, ScaleWeights)
// return a copy. It is therefore safe for any number of concurrent
// readers, and one Graph may be shared by every run and request that
// schedules it (lampsd interns request graphs this way).
//
// Tasks are identified by dense integer indices 0..NumTasks()-1. Weights are
// processing times in cycles at the maximum frequency; wall-clock duration at
// a scaled frequency f is weight/f seconds.
type Graph struct {
	name    string
	weights []int64
	labels  []string // optional task labels; may be nil
	nEdges  int

	// Adjacency in compressed sparse row (CSR) layout: the successors of
	// task v are succAdj[succOff[v]:succOff[v+1]], sorted ascending, and
	// likewise for predecessors. One flat array per direction keeps
	// dependency walks cache-friendly and makes the whole graph two
	// allocations instead of 2n.
	succAdj []int32
	succOff []int32 // len NumTasks()+1
	predAdj []int32
	predOff []int32 // len NumTasks()+1

	// Derived data, computed once in Builder.Build.
	topo     []int32 // a topological order of all tasks
	blevel   []int64 // longest path to a sink, including the task's own weight
	tlevel   []int64 // longest path from a source, excluding the task's own weight
	sources  []int32 // tasks with no predecessors, ascending
	sinks    []int32 // tasks with no successors, ascending
	cpl      int64   // critical path length, in cycles
	work     int64   // sum of all weights, in cycles
	maxWidth int     // upper bound on useful processors (antichain estimate)
}

// Name returns the graph's descriptive name (may be empty).
func (g *Graph) Name() string { return g.name }

// NumTasks returns the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.weights) }

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// Weight returns the processing time of task v in cycles.
func (g *Graph) Weight(v int) int64 { return g.weights[v] }

// Label returns the optional label of task v, or "" when unset.
func (g *Graph) Label(v int) string {
	if g.labels == nil {
		return ""
	}
	return g.labels[v]
}

// Succs returns the direct successors of task v in ascending order. The
// returned slice is a view into the graph's CSR adjacency, owned by the
// graph, and must not be modified.
func (g *Graph) Succs(v int) []int32 { return g.succAdj[g.succOff[v]:g.succOff[v+1]] }

// Preds returns the direct predecessors of task v in ascending order. The
// returned slice is a view into the graph's CSR adjacency, owned by the
// graph, and must not be modified.
func (g *Graph) Preds(v int) []int32 { return g.predAdj[g.predOff[v]:g.predOff[v+1]] }

// InDegree returns the number of direct predecessors of task v.
func (g *Graph) InDegree(v int) int { return int(g.predOff[v+1] - g.predOff[v]) }

// OutDegree returns the number of direct successors of task v.
func (g *Graph) OutDegree(v int) int { return int(g.succOff[v+1] - g.succOff[v]) }

// TotalWork returns the sum of all task weights in cycles. The paper calls
// this the total amount of work W.
func (g *Graph) TotalWork() int64 { return g.work }

// CriticalPathLength returns the length of the longest weighted path in
// cycles (CPL). Deadlines in the paper's evaluation are multiples of the CPL.
func (g *Graph) CriticalPathLength() int64 { return g.cpl }

// Parallelism returns the average amount of parallelism, defined in the
// paper as total work divided by the critical path length. A linked list has
// parallelism 1.
func (g *Graph) Parallelism() float64 {
	return float64(g.work) / float64(g.cpl)
}

// TopoOrder returns a topological order of all task indices. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) TopoOrder() []int32 { return g.topo }

// BottomLevel returns the length of the longest path from task v to any
// sink, including v's own weight. Tasks on a critical path have
// BottomLevel(v) + TopLevel(v) == CriticalPathLength().
func (g *Graph) BottomLevel(v int) int64 { return g.blevel[v] }

// TopLevel returns the length of the longest path from any source up to (but
// excluding) task v; it is the earliest possible start time of v in cycles
// on an unbounded machine.
func (g *Graph) TopLevel(v int) int64 { return g.tlevel[v] }

// MaxWidth returns an upper bound on the number of tasks that can execute
// concurrently, computed as the maximum number of tasks that overlap in
// their unbounded-machine execution windows. It bounds the useful processor
// count from above.
func (g *Graph) MaxWidth() int { return g.maxWidth }

// Sources returns all tasks with no predecessors, in ascending order. The
// slice is precomputed in Builder.Build, owned by the graph, and must not be
// modified — the same ownership convention as Succs and TopoOrder.
func (g *Graph) Sources() []int32 { return g.sources }

// Sinks returns all tasks with no successors, in ascending order. The slice
// is precomputed in Builder.Build, owned by the graph, and must not be
// modified — the same ownership convention as Succs and TopoOrder.
func (g *Graph) Sinks() []int32 { return g.sinks }

// ScaleWeights returns a copy of the graph with every weight multiplied by
// factor. It is used to convert abstract task-graph weights into cycles: the
// paper's coarse-grain scenario maps weight 1 to 3.1e6 cycles (1 ms at
// 3.1 GHz) and the fine-grain scenario to 3.1e4 cycles (10 µs).
func (g *Graph) ScaleWeights(factor int64) (*Graph, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("%w: scale factor %d", ErrBadWeight, factor)
	}
	ng := *g
	ng.weights = make([]int64, len(g.weights))
	ng.blevel = make([]int64, len(g.blevel))
	ng.tlevel = make([]int64, len(g.tlevel))
	for v, w := range g.weights {
		ng.weights[v] = w * factor
		ng.blevel[v] = g.blevel[v] * factor
		ng.tlevel[v] = g.tlevel[v] * factor
	}
	ng.cpl = g.cpl * factor
	ng.work = g.work * factor
	return &ng, nil
}

// Rename returns a shallow copy of the graph with a different name.
func (g *Graph) Rename(name string) *Graph {
	ng := *g
	ng.name = name
	return &ng
}

// Validate re-checks the structural invariants of the graph. It is intended
// for tests and for defensive checks after deserialization; Builder.Build
// already guarantees them for graphs it returns.
func (g *Graph) Validate() error {
	n := g.NumTasks()
	if n == 0 {
		return ErrEmpty
	}
	for v := 0; v < n; v++ {
		if g.weights[v] <= 0 {
			return fmt.Errorf("%w: task %d has weight %d", ErrBadWeight, v, g.weights[v])
		}
	}
	if len(g.topo) != n {
		return ErrCycle
	}
	pos := make([]int, n)
	for i, v := range g.topo {
		pos[v] = i
	}
	var work int64
	for v := 0; v < n; v++ {
		work += g.weights[v]
		for _, s := range g.Succs(v) {
			if int(s) < 0 || int(s) >= n {
				return fmt.Errorf("%w: edge %d->%d", ErrBadTask, v, s)
			}
			if pos[v] >= pos[s] {
				return ErrCycle
			}
		}
	}
	if work != g.work {
		return fmt.Errorf("dag: cached total work %d != recomputed %d", g.work, work)
	}
	return nil
}
