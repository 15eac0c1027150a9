package slab

import (
	"slices"
	"testing"
)

// TestSlabCutsFewChunks: every element a slab hands out is zeroed and
// its own, a window's capacity is its length (appending to one never
// writes into the next), and n elements cost O(log n) allocations.
func TestSlabCutsFewChunks(t *testing.T) {
	var s Slab[int]
	var prev []int
	for i := 0; i < 1000; i++ {
		p := s.One()
		if *p != 0 {
			t.Fatalf("element %d is %d, not zeroed", i, *p)
		}
		*p = i + 1
		w := s.Window(i % 4)
		if cap(w) != len(w) || len(w) != i%4 || slices.ContainsFunc(w, func(x int) bool { return x != 0 }) {
			t.Fatalf("window %d: len %d cap %d %v", i, len(w), cap(w), w)
		}
		for k := range w {
			w[k] = -1
		}
		if len(prev) > 0 {
			if grown := append(prev, 7); &grown[0] == &prev[0] {
				t.Fatalf("appending to window %d wrote into the slab", i-1)
			}
		}
		prev = w
	}
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[int]
		for i := 0; i < 1000; i++ {
			s.One()
			s.Window(i % 4)
		}
	})
	if allocs > 12 {
		t.Errorf("cutting 2,500 elements took %.0f allocations, want O(log n)", allocs)
	}
}

// TestResetReuses: after Reset, One and Window hand out zeroed elements
// from the kept chunk, windows are still capacity-capped, and a second
// identical round of cuts allocates nothing.
func TestResetReuses(t *testing.T) {
	var s Slab[int]
	// round cuts 900 elements; appending to each window (check) is an
	// allocation of the test's own.
	round := func(check bool) {
		for i := 0; i < 300; i++ {
			p := s.One()
			if *p != 0 {
				t.Fatalf("element %d is %d after Reset, not zeroed", i, *p)
			}
			*p = -1
			w := s.Window(i % 5)
			if cap(w) != len(w) || slices.ContainsFunc(w, func(x int) bool { return x != 0 }) {
				t.Fatalf("window %d after Reset: len %d cap %d %v", i, len(w), cap(w), w)
			}
			for k := range w {
				w[k] = -1
			}
			if check && len(w) > 0 {
				if grown := append(w, 7); &grown[0] == &w[0] {
					t.Fatalf("appending to window %d wrote into the slab", i)
				}
			}
		}
	}
	round(true)
	s.Reset()
	round(true)
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		round(false)
	})
	if allocs != 0 {
		t.Errorf("a round of cuts after Reset took %.0f allocations, want 0", allocs)
	}
}
