package sched

import (
	"encoding/json"
	"fmt"
	"io"

	"lamps/internal/dag"
)

// scheduleJSON is the serialised form of a Schedule. Graph structure is
// embedded so the file is self-contained and can be re-verified.
type scheduleJSON struct {
	Name     string     `json:"name"`
	NumProcs int        `json:"num_procs"`
	Makespan int64      `json:"makespan_cycles"`
	Tasks    []taskJSON `json:"tasks"`
}

type taskJSON struct {
	ID     int     `json:"id"`
	Label  string  `json:"label,omitempty"`
	Weight int64   `json:"weight_cycles"`
	Preds  []int32 `json:"preds,omitempty"`
	Proc   int32   `json:"proc"`
	Start  int64   `json:"start_cycles"`
	Finish int64   `json:"finish_cycles"`
}

// WriteJSON serialises the schedule (including the graph) so external tools
// can render or verify it; ReadJSON restores it.
func (s *Schedule) WriteJSON(w io.Writer) error {
	doc := scheduleJSON{
		Name:     s.Graph.Name(),
		NumProcs: s.NumProcs,
		Makespan: s.Makespan,
	}
	for v := 0; v < s.Graph.NumTasks(); v++ {
		doc.Tasks = append(doc.Tasks, taskJSON{
			ID:     v,
			Label:  s.Graph.Label(v),
			Weight: s.Graph.Weight(v),
			Preds:  s.Graph.Preds(v),
			Proc:   s.Proc[v],
			Start:  s.Start[v],
			Finish: s.Finish[v],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// MaxJSONProcs bounds the num_procs ReadJSON accepts: a document may claim
// at most this many processors, or one per task if it has more tasks. That
// admits every schedule the engine writes — it never employs more
// processors than the graph has tasks — and keeps the per-processor state
// ReadJSON rebuilds proportional to the document.
const MaxJSONProcs = 1 << 16

// ReadJSON restores a schedule written by WriteJSON. It checks only what it
// needs to build a well-formed Schedule — the document's shape, dense task
// ids, a buildable graph, a processor count within MaxJSONProcs and every
// processor index in range — and rebuilds the finish order and
// per-processor lists. It does not judge the placement: slot lengths
// depend on the machine (a class-stretched slot on a platform is longer
// than the task's weight), which only the caller knows, so legality is for
// verify.ScheduleWithin, given the platform.
func ReadJSON(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc scheduleJSON
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("sched: decoding schedule: %w", err)
	}
	if limit := max(len(doc.Tasks), MaxJSONProcs); doc.NumProcs > limit {
		return nil, fmt.Errorf("sched: num_procs %d exceeds the limit of %d", doc.NumProcs, limit)
	}
	b := dag.NewBuilder(doc.Name)
	for i, tk := range doc.Tasks {
		if tk.ID != i {
			return nil, fmt.Errorf("sched: task ids not dense at %d", i)
		}
		b.AddLabeledTask(tk.Weight, tk.Label)
	}
	for _, tk := range doc.Tasks {
		for _, p := range tk.Preds {
			b.AddEdge(int(p), tk.ID)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("sched: rebuilding graph: %w", err)
	}
	s := &Schedule{
		Graph:    g,
		NumProcs: doc.NumProcs,
		Proc:     make([]int32, len(doc.Tasks)),
		Start:    make([]int64, len(doc.Tasks)),
		Finish:   make([]int64, len(doc.Tasks)),
		Makespan: doc.Makespan,
	}
	for _, tk := range doc.Tasks {
		if tk.Proc < 0 || int(tk.Proc) >= doc.NumProcs {
			return nil, fmt.Errorf("sched: task %d on invalid processor %d of %d", tk.ID, tk.Proc, doc.NumProcs)
		}
		s.Proc[tk.ID] = tk.Proc
		s.Start[tk.ID] = tk.Start
		s.Finish[tk.ID] = tk.Finish
	}
	s.rebuildOrders()
	return s, nil
}
