package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

func streamOf(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	pf, err := loadPlatform(filepath.Join("..", platformFile))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := newGenerator(workloads[name], seed, pf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = gen.next().body
	}
	return out
}

func TestFixedSeedGivesIdenticalStream(t *testing.T) {
	for _, name := range []string{"solve-plain", "solve-ft"} {
		t.Run(name, func(t *testing.T) {
			a, b := streamOf(t, name, 7, 200), streamOf(t, name, 7, 200)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("request %d differs between two streams of seed 7", i)
				}
			}
			c := streamOf(t, name, 8, 200)
			same := 0
			for i := range a {
				if bytes.Equal(a[i], c[i]) {
					same++
				}
			}
			if same == len(a) {
				t.Fatal("seeds 7 and 8 produced the same stream")
			}
		})
	}
}

// Every block of the solve streams covers each combination once, so the
// heavy-class share is exact per block.
func TestBlocksAreBalanced(t *testing.T) {
	pf, err := loadPlatform(filepath.Join("..", platformFile))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := newGenerator(workloads["solve-ft"], 3, pf)
	if err != nil {
		t.Fatal(err)
	}
	combos := map[string]int{}
	heavy := 0
	for i := 0; i < len(gen.slots); i++ {
		p := gen.next().prob
		combos[p.combo()]++
		if p.heavy() {
			heavy++
		}
	}
	if want := len(plainKinds) * len(approaches) * 3; len(combos) != want {
		t.Errorf("one block covers %d combinations, want %d", len(combos), want)
	}
	if heavy*7 != len(gen.slots) {
		t.Errorf("heavy share %d/%d, want 1/7", heavy, len(gen.slots))
	}
}
