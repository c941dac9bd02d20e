package power

import (
	"fmt"
	"math"
	"sort"
)

// CoreClass is one processor class of a heterogeneous platform: a name and
// the power model describing its frequency ladder, leakage constants and
// on/sleep powers. Classes follow the FEST/EnSuRe shape (low-power cores
// plus a high-performance core with a different frequency ratio), but any
// number of classes with arbitrary built models is accepted.
type CoreClass struct {
	Name  string
	Model *Model
}

// Platform is an ordered vector of processors, each referencing a core
// class. It generalises the paper's identical-processor machine: a
// homogeneous platform (one class) behaves exactly like the old
// (nprocs, *Model) pair, while a heterogeneous one gives every processor
// the frequency ladder and leakage constants of its class.
//
// Time convention: schedules on a platform are expressed in cycles of the
// *reference* class — the class with the highest maximum frequency. A task
// of w cycles placed on a processor of class c occupies
// ceil(w · RefFMax/FMax_c) reference cycles (exactly w on the reference
// class), so slower cores occupy proportionally longer slots on the shared
// timeline. Running the platform at a normalised operating point σ
// stretches the whole timeline uniformly, exactly as a single model's DVS
// level does.
//
// A Platform is immutable after construction — its class models are built
// before it is made and its operating grid is derived in NewPlatform — and
// safe for any number of concurrent readers, so one Platform may be shared by every run and
// request that names it (lampsd interns request platforms this way).
type Platform struct {
	classes []CoreClass
	procs   []int // processor index -> class index
	ref     int   // class with the highest FMax (ties: lowest index)
	refFMax float64
	scale   []float64 // per class: RefFMax / FMax_c (1 for the reference)
	grid    []OperatingPoint
}

// OperatingPoint is one discrete operating point of a platform: a common
// normalised frequency σ = f/fmax applied to every class, realised per
// class by the slowest ladder level that sustains σ. TimelineFreq is the
// frequency of the shared timeline (σ·RefFMax): a schedule slot of c
// reference cycles lasts c/TimelineFreq seconds at this point.
type OperatingPoint struct {
	Index        int     // position in Platform.Points(), 0 = fastest
	Norm         float64 // σ, the common normalised frequency
	TimelineFreq float64 // σ·RefFMax [Hz]
	Levels       []Level // per class: the realising ladder level
}

func (pt OperatingPoint) String() string {
	return fmt.Sprintf("point %d (%.2f·fmax, timeline %.3gHz)", pt.Index, pt.Norm, pt.TimelineFreq)
}

// NewPlatform builds a platform from its classes and the per-processor
// class assignment. Every class model must be built (Default70nm or
// Build()); class names must be non-empty and unique; the assignment must
// be non-empty and reference classes by index.
func NewPlatform(classes []CoreClass, procs []int) (*Platform, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: platform has no classes", ErrBadParams)
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("%w: platform has no processors", ErrBadParams)
	}
	seen := make(map[string]bool, len(classes))
	for i, cl := range classes {
		if cl.Name == "" {
			return nil, fmt.Errorf("%w: class %d has no name", ErrBadParams, i)
		}
		if seen[cl.Name] {
			return nil, fmt.Errorf("%w: duplicate class name %q", ErrBadParams, cl.Name)
		}
		seen[cl.Name] = true
		if cl.Model == nil || !cl.Model.built {
			return nil, fmt.Errorf("%w: class %q model is nil or not built", ErrNotBuilt, cl.Name)
		}
	}
	pf := &Platform{
		classes: append([]CoreClass(nil), classes...),
		procs:   append([]int(nil), procs...),
	}
	for _, c := range pf.procs {
		if c < 0 || c >= len(classes) {
			return nil, fmt.Errorf("%w: processor references class %d of %d", ErrBadParams, c, len(classes))
		}
	}
	pf.ref = 0
	for c, cl := range pf.classes {
		if cl.Model.FMax() > pf.classes[pf.ref].Model.FMax() {
			pf.ref = c
		}
	}
	pf.refFMax = pf.classes[pf.ref].Model.FMax()
	pf.scale = make([]float64, len(pf.classes))
	for c, cl := range pf.classes {
		pf.scale[c] = pf.refFMax / cl.Model.FMax()
	}
	pf.buildGrid()
	return pf, nil
}

// Homogeneous returns a platform of n identical processors of the given
// model — the degenerate platform that reproduces the paper's
// identical-processor machine exactly.
func Homogeneous(n int, m *Model) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d processors", ErrBadParams, n)
	}
	if m == nil {
		m = Default70nm()
	}
	procs := make([]int, n)
	return NewPlatform([]CoreClass{{Name: "core", Model: m}}, procs)
}

// NumProcs returns the number of processors.
func (pf *Platform) NumProcs() int { return len(pf.procs) }

// NumClasses returns the number of core classes.
func (pf *Platform) NumClasses() int { return len(pf.classes) }

// Class returns class c.
func (pf *Platform) Class(c int) CoreClass { return pf.classes[c] }

// ClassModel returns the power model of class c.
func (pf *Platform) ClassModel(c int) *Model { return pf.classes[c].Model }

// ClassOf returns the class index of processor p.
func (pf *Platform) ClassOf(p int) int { return pf.procs[p] }

// ModelOf returns the power model of processor p.
func (pf *Platform) ModelOf(p int) *Model { return pf.classes[pf.procs[p]].Model }

// RefClass returns the index of the reference class (highest FMax).
func (pf *Platform) RefClass() int { return pf.ref }

// RefFMax returns the maximum frequency of the reference class — the
// frequency of one timeline cycle at full speed.
func (pf *Platform) RefFMax() float64 { return pf.refFMax }

// Scale returns the slot-stretch factor of class c: RefFMax/FMax_c, exactly
// 1 for the reference class.
func (pf *Platform) Scale(c int) float64 { return pf.scale[c] }

// IsHomogeneous reports whether the platform has a single core class and
// therefore behaves exactly like the legacy (nprocs, *Model) pair.
func (pf *Platform) IsHomogeneous() bool { return len(pf.classes) == 1 }

// ScaledWeight returns the timeline slot length of a w-cycle task on class
// c: exactly w on the reference class, ceil(w·Scale(c)) otherwise. The ceil
// guarantees the slot is never shorter than the execution time, so a
// schedule legal on the timeline stays legal after any uniform stretch.
func (pf *Platform) ScaledWeight(c int, w int64) int64 {
	s := pf.scale[c]
	if s == 1 {
		return w
	}
	return int64(math.Ceil(float64(w) * s))
}

// buildGrid assembles the operating grid: the union of every class's ladder
// norms, deduplicated and sorted fastest-first, each realised as the
// per-class level vector at that σ. When a point's σ comes from the
// reference class's own ladder, TimelineFreq is that level's exact Freq, so
// homogeneous platforms reproduce the legacy ladder bit for bit.
func (pf *Platform) buildGrid() {
	var norms []float64
	for _, cl := range pf.classes {
		for _, l := range cl.Model.Levels() {
			norms = append(norms, l.Norm)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(norms)))
	pf.grid = pf.grid[:0]
	prev := math.Inf(1)
	for _, sigma := range norms {
		if sigma == prev {
			continue
		}
		prev = sigma
		pt := OperatingPoint{
			Index:  len(pf.grid),
			Norm:   sigma,
			Levels: make([]Level, len(pf.classes)),
		}
		for c, cl := range pf.classes {
			pt.Levels[c] = levelForNorm(cl.Model, sigma)
		}
		if rl := pt.Levels[pf.ref]; rl.Norm == sigma {
			pt.TimelineFreq = rl.Freq
		} else {
			pt.TimelineFreq = sigma * pf.refFMax
		}
		pf.grid = append(pf.grid, pt)
	}
}

// levelForNorm returns the slowest ladder level of m sustaining the
// normalised frequency σ ≤ 1. Level 0 has Norm == 1, so a feasible level
// always exists; the one-ULP tolerance accepts σ values sourced from
// another class's ladder that land within rounding of a level's own norm.
func levelForNorm(m *Model, sigma float64) Level {
	best := m.levels[0]
	for _, l := range m.levels[1:] {
		if l.Norm >= sigma*(1-1e-12) {
			best = l
		} else {
			break
		}
	}
	return best
}

// Points returns the operating grid, fastest (index 0) to slowest. The
// slice is owned by the platform and must not be modified.
func (pf *Platform) Points() []OperatingPoint { return pf.grid }

// MaxPoint returns the fastest operating point (σ = 1).
func (pf *Platform) MaxPoint() OperatingPoint { return pf.grid[0] }

// PointForFrequency returns the slowest operating point whose timeline
// frequency is at least f — the platform analogue of
// Model.LevelForFrequency, with the same infeasibility tolerance.
func (pf *Platform) PointForFrequency(f float64) (OperatingPoint, error) {
	pts := pf.PointsFor(f)
	if len(pts) == 0 {
		return OperatingPoint{}, fmt.Errorf("%w: need %g Hz, max timeline %g Hz",
			ErrInfeasible, f, pf.grid[0].TimelineFreq)
	}
	return pts[len(pts)-1], nil
}

// PointsFor returns every operating point that sustains timeline frequency
// f, fastest first, ending at PointForFrequency(f); it is empty when f is
// beyond the fastest point, and allocates nothing either way. The slice is
// owned by the platform and must not be modified.
func (pf *Platform) PointsFor(f float64) []OperatingPoint {
	if f > pf.grid[0].TimelineFreq*(1+1e-12) {
		return nil
	}
	i := 1
	for i < len(pf.grid) && pf.grid[i].TimelineFreq >= f {
		i++
	}
	return pf.grid[:i]
}

func (pf *Platform) String() string {
	counts := make([]int, len(pf.classes))
	for _, c := range pf.procs {
		counts[c]++
	}
	out := fmt.Sprintf("platform of %d processor(s):", len(pf.procs))
	for c, cl := range pf.classes {
		out += fmt.Sprintf(" %d×%s(%.3gHz)", counts[c], cl.Name, cl.Model.FMax())
	}
	return out
}
