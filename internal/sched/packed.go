package sched

import (
	"math"

	"lamps/internal/dag"
	"lamps/internal/power"
)

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
	proc8    []uint8  // set when numProcs <= 1<<8
	proc16   []uint16 // set when 1<<8 < numProcs <= 1<<16
	proc32   []int32  // set otherwise
	start    []int64
	order    []int32
}

// Pack returns the compact copy of s, which must have come from a
// scheduling kernel (it needs the finish order).
func Pack(s *Schedule) *Packed {
	p := &Packed{
		numProcs: s.NumProcs,
		start:    append([]int64(nil), s.Start...),
		order:    append([]int32(nil), s.finishOrder...),
	}
	switch {
	case s.NumProcs <= math.MaxUint8+1:
		p.proc8 = make([]uint8, len(s.Proc))
		for v, q := range s.Proc {
			p.proc8[v] = uint8(q)
		}
	case s.NumProcs <= math.MaxUint16+1:
		p.proc16 = make([]uint16, len(s.Proc))
		for v, q := range s.Proc {
			p.proc16[v] = uint16(q)
		}
	default:
		p.proc32 = append([]int32(nil), s.Proc...)
	}
	return p
}

// Bytes returns the packed schedule's footprint: its arrays plus the fixed
// header, the figure a bounded store charges for keeping it.
func (p *Packed) Bytes() int64 {
	const header = 8 + 5*24 // numProcs and five slice headers
	return header + int64(len(p.proc8)) + 2*int64(len(p.proc16)) + 4*int64(len(p.proc32)) +
		8*int64(len(p.start)) + 4*int64(len(p.order))
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
	switch {
	case p.proc8 != nil:
		for v, q := range p.proc8 {
			dst.Proc[v] = int32(q)
		}
	case p.proc16 != nil:
		for v, q := range p.proc16 {
			dst.Proc[v] = int32(q)
		}
	default:
		copy(dst.Proc, p.proc32)
	}
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
