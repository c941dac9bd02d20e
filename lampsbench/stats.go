package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 1) of xs by the
// nearest-rank method, and an error when fewer than minBeyond samples lie
// beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive xs; 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// maxWindows caps how many windows windowedP99 splits a phase into.
const maxWindows = 6

// windowedP99 splits xs, in time order, into as many consecutive windows of
// equal size as keep at least 1000 samples each (at most maxWindows) and
// returns the median of the windows' p99s and the window count. A stall that
// hits one window moves the result less than it moves a single p99 over the
// whole phase.
func windowedP99(xs []float64) (float64, int, error) {
	w := min(maxWindows, len(xs)/(100*minBeyond))
	if w < 1 {
		_, err := percentile(xs, 0.99)
		return 0, 0, err
	}
	var p99s []float64
	for i := 0; i < w; i++ {
		p, err := percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], 0.99)
		if err != nil {
			return 0, 0, err
		}
		p99s = append(p99s, p)
	}
	return median(p99s), w, nil
}
