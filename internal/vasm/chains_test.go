package vasm

import (
	"math/rand"
	"slices"
	"testing"
)

// TestChainWindowsAreCapped: Layout's chains share one backing array.
// On random partitions of the blocks into chains each window lists its
// chain in order, and appending to one leaves every other chain as it
// was.
func TestChainWindowsAreCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var st chainState // one state for every trial, as a recycled unit's
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		perm := rng.Perm(n)
		first, next := make([]int, n), make([]int, n)
		for i := range first {
			first[i], next[i] = -1, -1
		}
		var want [][]int
		for at := 0; at < n; {
			k := 1 + rng.Intn(n-at)
			chain := perm[at : at+k]
			for i := 0; i+1 < len(chain); i++ {
				next[chain[i]] = chain[i+1]
			}
			first[chain[0]] = chain[0]
			want = append(want, chain)
			at += k
		}
		slices.SortFunc(want, func(a, b []int) int { return a[0] - b[0] })
		got := st.windows(first, next)
		if len(got) != len(want) {
			t.Fatalf("%d chains, want %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("chain %d is %v, want %v", i, got[i], want[i])
			}
		}
		for i := range got {
			got[i] = append(got[i], -7)
			for j := range got {
				if j != i && !slices.Equal(got[j], want[j]) {
					t.Fatalf("appending to chain %d changed chain %d to %v", i, j, got[j])
				}
			}
			got[i] = got[i][:len(got[i])-1]
		}
	}
}
