package dag

import (
	"fmt"
	"slices"
)

// Builder assembles a Graph incrementally. The zero value is not usable;
// create one with NewBuilder. Builders are not safe for concurrent use.
type Builder struct {
	name    string
	weights []int64
	labels  []string
	edges   [][2]int // endpoints kept at full width until Build range-checks them
	anyLbl  bool
}

// NewBuilder returns an empty builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Grow makes room for the given numbers of further tasks and edges, so a
// caller that knows the graph's size up front (a decoded request) fills the
// builder without reallocating.
func (b *Builder) Grow(tasks, edges int) {
	b.weights = slices.Grow(b.weights, tasks)
	b.labels = slices.Grow(b.labels, tasks)
	b.edges = slices.Grow(b.edges, edges)
}

// AddTask appends a task with the given weight (cycles) and returns its
// index. Weight validity is checked in Build so that builders can be
// populated from untrusted input and report all errors in one place.
func (b *Builder) AddTask(weight int64) int {
	b.weights = append(b.weights, weight)
	b.labels = append(b.labels, "")
	return len(b.weights) - 1
}

// AddLabeledTask appends a task with a label and returns its index.
func (b *Builder) AddLabeledTask(weight int64, label string) int {
	v := b.AddTask(weight)
	b.labels[v] = label
	if label != "" {
		b.anyLbl = true
	}
	return v
}

// AddEdge records a dependence: task to cannot start before task from has
// finished. Validity is checked in Build, against the endpoints as given:
// an index that does not fit the graph's int32 adjacency is out of range,
// never silently narrowed onto another task.
func (b *Builder) AddEdge(from, to int) {
	b.edges = append(b.edges, [2]int{from, to})
}

// NumTasks returns the number of tasks added so far.
func (b *Builder) NumTasks() int { return len(b.weights) }

// MaxCycles bounds a graph's total work plus its critical path length, in
// cycles. Every schedule time and every sum of weights, levels or slack is
// then an int64 that a float64 represents exactly.
const MaxCycles = 1 << 53

// Build validates the accumulated tasks and edges and returns an immutable
// Graph with all derived analyses precomputed. It returns an error if the
// graph is empty, a weight is non-positive, total work plus critical path
// length exceeds MaxCycles, an edge is out of range, a self edge or
// duplicate edge exists, or the edges form a cycle.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.weights)
	if n == 0 {
		return nil, ErrEmpty
	}
	g := &Graph{
		name:    b.name,
		weights: append([]int64(nil), b.weights...),
	}
	if b.anyLbl {
		g.labels = append([]string(nil), b.labels...)
	}
	for v, w := range g.weights {
		if w <= 0 {
			return nil, fmt.Errorf("%w: task %d has weight %d", ErrBadWeight, v, w)
		}
		// g.work <= MaxCycles throughout, so the difference cannot overflow.
		if w > MaxCycles-g.work {
			return nil, fmt.Errorf("%w: total work passes %d cycles at task %d", ErrBadWeight, int64(MaxCycles), v)
		}
		g.work += w
	}

	// Adjacency is stored in CSR form: count degrees, turn the counts into
	// offsets, then scatter the edges into the two flat arrays.
	g.succOff = make([]int32, n+1)
	g.predOff = make([]int32, n+1)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("%w: edge %d->%d with %d tasks", ErrBadTask, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("%w: task %d", ErrSelfEdge, u)
		}
		g.succOff[u+1]++
		g.predOff[v+1]++
		g.nEdges++
	}
	for v := 0; v < n; v++ {
		g.succOff[v+1] += g.succOff[v]
		g.predOff[v+1] += g.predOff[v]
	}
	g.succAdj = make([]int32, g.nEdges)
	g.predAdj = make([]int32, g.nEdges)
	cur := make([]int32, 2*n)
	sCur, pCur := cur[:n], cur[n:]
	copy(sCur, g.succOff[:n])
	copy(pCur, g.predOff[:n])
	for _, e := range b.edges {
		u, v := e[0], e[1]
		g.succAdj[sCur[u]] = int32(v)
		sCur[u]++
		g.predAdj[pCur[v]] = int32(u)
		pCur[v]++
	}
	// Detect duplicates after sorting each CSR row; sorted rows also make
	// traversal deterministic for downstream consumers.
	for v := 0; v < n; v++ {
		slices.Sort(g.succAdj[g.succOff[v]:g.succOff[v+1]])
		slices.Sort(g.predAdj[g.predOff[v]:g.predOff[v+1]])
		if d := firstDup(g.Succs(v)); d >= 0 {
			return nil, fmt.Errorf("%w: %d->%d", ErrDupEdge, v, d)
		}
	}

	if err := g.computeTopo(); err != nil {
		return nil, err
	}
	g.computeLevels()
	if g.cpl > MaxCycles-g.work {
		return nil, fmt.Errorf("%w: total work %d plus critical path %d passes %d cycles",
			ErrBadWeight, g.work, g.cpl, int64(MaxCycles))
	}
	g.computeMaxWidth()
	g.computeSourcesSinks()
	return g, nil
}

// computeSourcesSinks precomputes the Sources/Sinks slices, so the accessors
// can return graph-owned views instead of allocating per call.
// Both are sized exactly up front: one allocation each.
func (g *Graph) computeSourcesSinks() {
	nSrc, nSnk := 0, 0
	for v := 0; v < g.NumTasks(); v++ {
		if g.InDegree(v) == 0 {
			nSrc++
		}
		if g.OutDegree(v) == 0 {
			nSnk++
		}
	}
	g.sources = make([]int32, 0, nSrc)
	g.sinks = make([]int32, 0, nSnk)
	for v := 0; v < g.NumTasks(); v++ {
		if g.InDegree(v) == 0 {
			g.sources = append(g.sources, int32(v))
		}
		if g.OutDegree(v) == 0 {
			g.sinks = append(g.sinks, int32(v))
		}
	}
}

// firstDup returns the first duplicated value in a sorted slice, or -1.
func firstDup(s []int32) int32 {
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i]
		}
	}
	return -1
}

// computeTopo fills g.topo using Kahn's algorithm; ErrCycle if not a DAG.
// The FIFO queue is topo itself: tasks are emitted in the order they are
// enqueued, so the unread tail of topo is the queue.
func (g *Graph) computeTopo() error {
	n := g.NumTasks()
	indeg := make([]int32, n)
	topo := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		indeg[v] = int32(g.InDegree(v))
		if indeg[v] == 0 {
			topo = append(topo, int32(v))
		}
	}
	for head := 0; head < len(topo); head++ {
		for _, s := range g.Succs(int(topo[head])) {
			indeg[s]--
			if indeg[s] == 0 {
				topo = append(topo, s)
			}
		}
	}
	if len(topo) != n {
		return ErrCycle
	}
	g.topo = topo
	return nil
}

// computeLevels fills blevel, tlevel and cpl by dynamic programming over the
// topological order.
func (g *Graph) computeLevels() {
	n := g.NumTasks()
	g.blevel = make([]int64, n)
	g.tlevel = make([]int64, n)
	// Top levels: forward pass.
	for _, v := range g.topo {
		end := g.tlevel[v] + g.weights[v]
		for _, s := range g.Succs(int(v)) {
			if end > g.tlevel[s] {
				g.tlevel[s] = end
			}
		}
	}
	// Bottom levels: backward pass.
	for i := n - 1; i >= 0; i-- {
		v := g.topo[i]
		var best int64
		for _, s := range g.Succs(int(v)) {
			if g.blevel[s] > best {
				best = g.blevel[s]
			}
		}
		g.blevel[v] = best + g.weights[v]
	}
	for v := 0; v < n; v++ {
		if l := g.blevel[v] + g.tlevel[v]; l > g.cpl {
			g.cpl = l
		}
	}
}

// computeMaxWidth estimates the maximum number of concurrently executable
// tasks by sweeping the unbounded-machine execution windows
// [TopLevel(v), TopLevel(v)+Weight(v)). The window starts and ends are
// sorted separately and merged, ends before starts at equal times, so a
// window that closes exactly when another opens never counts as overlap.
func (g *Graph) computeMaxWidth() {
	n := g.NumTasks()
	buf := make([]int64, 2*n)
	starts, ends := buf[:n], buf[n:]
	for v := 0; v < n; v++ {
		starts[v] = g.tlevel[v]
		ends[v] = g.tlevel[v] + g.weights[v]
	}
	slices.Sort(starts)
	slices.Sort(ends)
	// Every window ends after it starts, so ends never run ahead of starts:
	// the sweep is over once the last start is counted.
	cur, best, e := 0, 0, 0
	for _, t := range starts {
		for ends[e] <= t {
			e++
			cur--
		}
		cur++
		best = max(best, cur)
	}
	g.maxWidth = best
}
