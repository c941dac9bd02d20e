package sched

import (
	"math"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// narrow is a vector of non-negative int32 values below a known bound,
// kept at the smallest unsigned width that holds the bound: exactly one of
// its slices is set.
type narrow struct {
	u8  []uint8  // set when bound <= 1<<8
	u16 []uint16 // set when 1<<8 < bound <= 1<<16
	i32 []int32  // set otherwise
}

// narrowOf returns the narrowed copy of vals, every value of which lies in
// [0, bound).
func narrowOf(vals []int32, bound int) narrow {
	var nw narrow
	switch {
	case bound <= math.MaxUint8+1:
		nw.u8 = make([]uint8, len(vals))
		for i, x := range vals {
			nw.u8[i] = uint8(x)
		}
	case bound <= math.MaxUint16+1:
		nw.u16 = make([]uint16, len(vals))
		for i, x := range vals {
			nw.u16[i] = uint16(x)
		}
	default:
		nw.i32 = append([]int32(nil), vals...)
	}
	return nw
}

// widen writes the values into dst, which must have their length.
func (nw *narrow) widen(dst []int32) {
	switch {
	case nw.u8 != nil:
		for i, x := range nw.u8 {
			dst[i] = int32(x)
		}
	case nw.u16 != nil:
		for i, x := range nw.u16 {
			dst[i] = int32(x)
		}
	default:
		copy(dst, nw.i32)
	}
}

// bytes returns the footprint of the values.
func (nw *narrow) bytes() int64 {
	return int64(len(nw.u8)) + 2*int64(len(nw.u16)) + 4*int64(len(nw.i32))
}

// Packed is a compact, immutable copy of a kernel-built schedule: the
// processor of every task narrowed to the smallest unsigned width that
// holds the processor count, the start times and the finish order — 13
// bytes per task on up to 256 processors instead of the 28 a Schedule
// keeps. Everything else is derived on Unpack: Finish from the start, the
// task weight and the processor's class stretch, exactly as the kernel
// computes it; the makespan as the latest finish; the per-processor lists
// from the finish order by the kernel's own counting sort. A Packed holds
// no reference to the graph, so storing one pins nothing of the request.
type Packed struct {
	numProcs int
	proc     narrow // task -> processor
	start    []int64
	order    []int32
}

// Pack returns the compact copy of s, which must have come from a
// scheduling kernel (it needs the finish order).
func Pack(s *Schedule) *Packed {
	return &Packed{
		numProcs: s.NumProcs,
		proc:     narrowOf(s.Proc, s.NumProcs),
		start:    append([]int64(nil), s.Start...),
		order:    append([]int32(nil), s.finishOrder...),
	}
}

// Bytes returns the packed schedule's footprint: its arrays plus the fixed
// header, the figure a bounded store charges for keeping it.
func (p *Packed) Bytes() int64 {
	const header = 8 + 5*24 // numProcs and five slice headers
	return header + p.proc.bytes() + 8*int64(len(p.start)) + 4*int64(len(p.order))
}

// Unpack restores p into dst for graph g on platform pf — the graph and
// platform timing shape p was built for — drawing the per-processor
// counting-sort cursor from k's scratch. dst's slices are reused when large
// enough, so a warm restore allocates nothing, and the result is
// byte-identical to the schedule the kernel built: Finish is Start plus
// the weight (one class) or pf.ScaledWeight of the processor's class.
func (k *Scheduler) Unpack(dst *Schedule, g *dag.Graph, pf *power.Platform, p *Packed) {
	n := len(p.start)
	dst.Graph = g
	dst.NumProcs = p.numProcs
	dst.Proc = grow(dst.Proc, n)
	dst.Start = grow(dst.Start, n)
	dst.Finish = grow(dst.Finish, n)
	dst.finishOrder = grow(dst.finishOrder, n)
	p.proc.widen(dst.Proc)
	copy(dst.Start, p.start)
	copy(dst.finishOrder, p.order)
	var makespan int64
	oneClass := pf == nil || pf.NumClasses() == 1
	for v, t := range p.start {
		w := g.Weight(v)
		if !oneClass {
			w = pf.ScaledWeight(pf.ClassOf(int(dst.Proc[v])), w)
		}
		f := t + w
		dst.Finish[v] = f
		makespan = max(makespan, f)
	}
	dst.Makespan = makespan
	k.cursor = dst.buildByProc(k.cursor)
}

// PackedPlan is a compact, immutable copy of a planner-built BackupPlan:
// the backup start times, the planner's per-processor index with its task
// numbers narrowed like Packed's processors, the recovery makespan and the
// policy — 10 bytes per task up to 65,536 tasks instead of the 24 a
// BackupPlan keeps, plus 4 bytes per processor. The rest is derived on
// Unpack as the planner derives it: a task's backup processor is the index
// group it sits in, and Finish is the start plus the weight (one class) or
// pf.ScaledWeight of the backup processor's class. A PackedPlan holds no
// reference to the graph or the schedule.
type PackedPlan struct {
	start    []int64
	byProc   narrow  // tasks grouped by backup processor, in backup start order
	off      []int32 // processor p's group is byProc[off[p]:off[p+1]]
	recovery int64
	policy   FaultPolicy
}

// PackPlan returns the compact copy of pl, which must carry the planner's
// index (a plan from PlanBackups, Plan, Unpack or Restore); it panics on a
// plan assembled field by field, as BackupsOn does.
func PackPlan(pl *BackupPlan) *PackedPlan {
	if len(pl.byProcOff) == 0 {
		panic("sched: BackupPlan has no planner index; PackPlan needs a plan built by PlanBackups")
	}
	return &PackedPlan{
		start:    append([]int64(nil), pl.Start...),
		byProc:   narrowOf(pl.byProc, len(pl.Start)),
		off:      append([]int32(nil), pl.byProcOff...),
		recovery: pl.RecoveryMakespan,
		policy:   pl.Policy,
	}
}

// Bytes returns the packed plan's footprint: its arrays plus the fixed
// header, the figure a bounded store charges for keeping it.
func (p *PackedPlan) Bytes() int64 {
	const header = 5*24 + 8 + 16 // five slice headers, the recovery makespan and the policy string
	return header + 8*int64(len(p.start)) + p.byProc.bytes() + 4*int64(len(p.off))
}

// RecoveryMakespan returns the plan's latest backup finish without
// restoring it.
func (p *PackedPlan) RecoveryMakespan() int64 { return p.recovery }

// Restore returns the plan restored into fresh arrays laid out as the
// planner lays out a plan it returns — three allocations — for a caller
// that keeps it. Unpack into reused scratch serves a transient use.
func (p *PackedPlan) Restore(g *dag.Graph, pf *power.Platform) *BackupPlan {
	pl := newBackupPlan(len(p.start), len(p.off)-1)
	p.Unpack(pl, g, pf)
	return pl
}

// Unpack restores p into dst for graph g on platform pf — the graph and
// platform timing shape the plan was made for. dst's arrays are reused when
// large enough, so a warm restore allocates nothing, and the result is
// byte-identical to the plan the planner returned, BackupsOn index
// included. dst must not share arrays with a plan anyone else holds.
func (p *PackedPlan) Unpack(dst *BackupPlan, g *dag.Graph, pf *power.Platform) {
	n, np := len(p.start), len(p.off)-1
	dst.Proc = grow(dst.Proc, n)
	dst.Start = grow(dst.Start, n)
	dst.Finish = grow(dst.Finish, n)
	dst.byProc = grow(dst.byProc, n)
	dst.byProcOff = grow(dst.byProcOff, np+1)
	copy(dst.Start, p.start)
	copy(dst.byProcOff, p.off)
	p.byProc.widen(dst.byProc)
	if pf != nil && pf.NumClasses() == 1 {
		pf = nil // the planner's identical-processor case
	}
	for q := range np {
		c := 0
		if pf != nil {
			c = pf.ClassOf(q)
		}
		for _, v := range dst.byProc[p.off[q]:p.off[q+1]] {
			w := g.Weight(int(v))
			if pf != nil {
				w = pf.ScaledWeight(c, w)
			}
			dst.Proc[v] = int32(q)
			dst.Finish[v] = dst.Start[v] + w
		}
	}
	dst.RecoveryMakespan = p.recovery
	dst.Policy = p.policy
}
