// Command profdump inspects and diffs jumpstart profile snapshots
// (the files written by hhvm -prof-dump and consumed by hhvm
// -prof-load).
//
// Usage:
//
//	profdump inspect file
//	profdump diff a b
package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/jumpstart"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "inspect":
		if len(os.Args) != 3 {
			usage()
		}
		inspect(os.Args[2])
	case "diff":
		if len(os.Args) != 4 {
			usage()
		}
		diff(os.Args[2], os.Args[3])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  profdump inspect file
  profdump diff a b`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profdump:", err)
	os.Exit(1)
}

func load(path string) *jumpstart.Snapshot {
	s, err := jumpstart.Load(path)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return s
}

func inspect(path string) {
	s := load(path)
	var trans, arcs, targets int
	var total uint64
	for _, f := range s.Funcs {
		trans += len(f.Trans)
		arcs += len(f.Arcs)
		targets += len(f.CallTargets)
		total += f.TotalCount()
	}
	fmt.Printf("format version: %d\n", jumpstart.FormatVersion)
	fmt.Printf("functions:      %d\n", len(s.Funcs))
	fmt.Printf("translations:   %d\n", trans)
	fmt.Printf("arcs:           %d\n", arcs)
	fmt.Printf("call targets:   %d\n", targets)
	fmt.Printf("call edges:     %d\n", len(s.CallGraph))
	fmt.Printf("total count:    %d\n", total)

	type hot struct {
		name  string
		count uint64
	}
	hots := make([]hot, 0, len(s.Funcs))
	for _, f := range s.Funcs {
		hots = append(hots, hot{f.Name, f.TotalCount()})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].name < hots[j].name
	})
	if len(hots) > 10 {
		hots = hots[:10]
	}
	fmt.Printf("\nhottest functions:\n")
	for _, h := range hots {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(h.count) / float64(total)
		}
		fmt.Printf("  %12d (%5.1f%%)  %s\n", h.count, pct, h.name)
	}
}

func diff(pathA, pathB string) {
	a, b := load(pathA), load(pathB)
	type fn struct {
		hash  uint64
		count uint64
	}
	index := func(s *jumpstart.Snapshot) map[string]fn {
		m := make(map[string]fn, len(s.Funcs))
		for _, f := range s.Funcs {
			m[f.Name] = fn{f.Hash, f.TotalCount()}
		}
		return m
	}
	am, bm := index(a), index(b)
	names := make([]string, 0, len(am)+len(bm))
	for n := range am {
		names = append(names, n)
	}
	for n := range bm {
		if _, ok := am[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var onlyA, onlyB, changed, same int
	for _, n := range names {
		fa, inA := am[n]
		fb, inB := bm[n]
		switch {
		case !inB:
			onlyA++
			fmt.Printf("- %s (only in %s, count=%d)\n", n, pathA, fa.count)
		case !inA:
			onlyB++
			fmt.Printf("+ %s (only in %s, count=%d)\n", n, pathB, fb.count)
		case fa.hash != fb.hash:
			changed++
			fmt.Printf("! %s (bytecode changed, count %d -> %d)\n", n, fa.count, fb.count)
		default:
			same++
			if fa.count != fb.count {
				fmt.Printf("  %s count %d -> %d (%+d)\n", n, fa.count, fb.count,
					int64(fb.count)-int64(fa.count))
			}
		}
	}
	fmt.Printf("\n%d only in %s, %d only in %s, %d bytecode-changed, %d shared\n",
		onlyA, pathA, onlyB, pathB, changed, same)
}
