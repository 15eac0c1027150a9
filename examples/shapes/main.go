// Shapes: run a class-polymorphic but shape-monomorphic property
// workload (two classes with identical layouts) and show the typed
// object shapes machinery at work — shape guards on the monomorphic
// sites, inline-cache hits on the polymorphic ones, and how few
// accesses fall back to the generic by-name helper.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/jit"
)

const src = `
class PointA {
  public $x = 0;
  public $y = 0;
  function __construct($x, $y) { $this->x = $x; $this->y = $y; }
}
class PointB {
  public $x = 0;
  public $y = 0;
  function __construct($x, $y) { $this->x = $x; $this->y = $y; }
}

function dot($p, $q) {
  return $p->x * $q->x + $p->y * $q->y;
}

$sum = 0;
for ($i = 0; $i < 40; $i++) {
  $p = $i % 2 == 0 ? new PointA($i, $i + 1) : new PointB($i, $i + 1);
  $q = $i % 2 == 0 ? new PointB(2, 3) : new PointA(2, 3);
  $sum += dot($p, $q);
}
echo $sum, "\n";
`

func main() {
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 20 // small program: optimize early
	eng, err := core.NewEngine(unit, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var last uint64
	for i := 0; i < 60; i++ {
		out := io.Discard
		if i == 0 {
			out = os.Stdout // show the program's answer once
		}
		c, err := eng.RunRequest(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		last = c
	}
	st := eng.Stats()
	fmt.Printf("\noptimized regions: %d, steady cost %d cycles\n",
		st.OptimizedTranslations, last)
	fmt.Printf("shape guards: %d (fails %d)\n", st.ShapeGuards, st.ShapeGuardFails)
	fmt.Printf("prop IC: %d hits, %d misses, %d megamorphic probes\n",
		st.PropICHits, st.PropICMisses, st.PropICMega)
	fmt.Printf("generic property helper calls: %d\n", st.GenericPropCalls)
}
