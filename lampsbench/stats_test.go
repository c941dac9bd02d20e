package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples reported; only 9 lie beyond it")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples reported; only 9 lie beyond it")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean = %v", g)
	}
}
