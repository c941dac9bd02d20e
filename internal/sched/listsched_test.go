package sched

import (
	"math"
	"testing"
)

func TestSubSat(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{10, 3, 7},
		{math.MaxInt64, 5, math.MaxInt64 - 5},
		{math.MaxInt64, -1, math.MaxInt64}, // would wrap negative
		{math.MinInt64, 1, math.MinInt64},  // would wrap positive
		{math.MinInt64, -5, math.MinInt64 + 5},
		{-3, math.MaxInt64, math.MinInt64}, // true value is below MinInt64
		{0, math.MinInt64, math.MaxInt64},  // true value is above MaxInt64
	}
	for _, c := range cases {
		if got := subSat(c.a, c.b); got != c.want {
			t.Errorf("subSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
