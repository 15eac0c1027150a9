package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhir"
	"repro/internal/jit"
)

// progGen generates random (but deterministic per seed) PHP-subset
// programs exercising arithmetic, strings, arrays, branches, loops,
// and calls. The differential fuzz test runs each program in
// interpreter and region-JIT modes and requires identical output —
// through the profiling → optimized transition.
type progGen struct {
	r    *rand.Rand
	vars []string
	sb   strings.Builder
	fns  int
}

func newProgGen(seed int64) *progGen {
	return &progGen{r: rand.New(rand.NewSource(seed))}
}

func (g *progGen) pickVar() string {
	if len(g.vars) == 0 || g.r.Intn(4) == 0 {
		v := fmt.Sprintf("v%d", len(g.vars))
		g.vars = append(g.vars, v)
		return v
	}
	return g.vars[g.r.Intn(len(g.vars))]
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 {
		switch g.r.Intn(5) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(100)-20)
		case 1:
			return fmt.Sprintf("%d.5", g.r.Intn(10))
		case 2:
			return fmt.Sprintf("\"s%d\"", g.r.Intn(10))
		default:
			if len(g.vars) == 0 {
				return "1"
			}
			return "$" + g.vars[g.r.Intn(len(g.vars))]
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s . %s)", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("(%s < %s ? %s : %s)",
			g.expr(depth-1), g.expr(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 5:
		return fmt.Sprintf("strlen(strval(%s))", g.expr(depth-1))
	case 6:
		return fmt.Sprintf("(int)(%s)", g.expr(depth-1))
	default:
		return g.expr(depth - 1)
	}
}

// raising wraps one statement that raises a guest error for most
// operand kinds — a hint violation, an index, append, method call or
// property access on a scalar, a native called with the wrong number
// of arguments, an array added to a scalar — in try/catch and echoes
// the message, then the operand: error text and post-catch state are
// compared like any other output. The operand is a fresh variable, so
// the statements that auto-vivify it leave the scalar namespace alone.
func (g *progGen) raising() {
	v := fmt.Sprintf("e%d", g.fns)
	g.fns++
	body := []string{
		"echo hinted($%s), \";\";",
		"echo $%s[0], \";\";",
		"$%s[] = 1;",
		"echo $%s->method(1), \";\";",
		"echo $%s->prop, \";\";",
		"$%s->prop = 1;",
		"echo strlen($%s, 2), \";\";",
		"echo strval([1, 2] + $%s), \";\";",
	}[g.r.Intn(8)]
	fmt.Fprintf(&g.sb, "$%s = %s;\ntry { "+body+" } catch (Exception $ex) { echo $ex->getMessage(), \";\"; }\n",
		v, g.expr(1), v)
	fmt.Fprintf(&g.sb, "echo is_array($%s) ? count($%s) : strval($%s), \";\";\n", v, v, v)
}

func (g *progGen) stmt(depth int) {
	switch g.r.Intn(8) {
	case 0, 1:
		fmt.Fprintf(&g.sb, "$%s = %s;\n", g.pickVar(), g.expr(2))
	case 2:
		v := g.pickVar()
		fmt.Fprintf(&g.sb, "$%s = 0;\nfor ($i%d = 0; $i%d < %d; $i%d++) { $%s = $%s + %s; }\n",
			v, g.fns, g.fns, 2+g.r.Intn(6), g.fns, v, v, g.expr(1))
		g.fns++
	case 3:
		if depth > 0 {
			fmt.Fprintf(&g.sb, "if (%s) {\n", g.expr(1))
			g.stmt(depth - 1)
			g.sb.WriteString("} else {\n")
			g.stmt(depth - 1)
			g.sb.WriteString("}\n")
		} else {
			fmt.Fprintf(&g.sb, "echo %s, \";\";\n", g.expr(1))
		}
	case 4:
		// Arrays live in their own namespace so scalar arithmetic
		// never sees them (Arr + Int is a legitimate guest error).
		v := fmt.Sprintf("arr%d", g.fns)
		g.fns++
		fmt.Fprintf(&g.sb, "$%s = [%s, %s, %s];\n", v, g.expr(1), g.expr(1), g.expr(1))
		fmt.Fprintf(&g.sb, "$%s[] = %s;\n", v, g.expr(1))
		fmt.Fprintf(&g.sb, "echo count($%s), \";\";\n", v)
	case 5:
		v := g.pickVar()
		fmt.Fprintf(&g.sb, "$%s = 0;\nforeach ([%s, %s] as $e%d) { $%s = $%s + strlen(strval($e%d)); }\n",
			v, g.expr(1), g.expr(1), g.fns, v, v, g.fns)
		g.fns++
	case 6:
		g.raising()
	default:
		fmt.Fprintf(&g.sb, "echo %s, \";\";\n", g.expr(2))
	}
}

// flow emits a function built to stress the type flow across region
// blocks (DESIGN.md §6) and a call that runs it hot: nested loops, an
// accumulator whose type changes mid-loop under a data-dependent if
// (the back-edge then breaks what the loop header assumed of it), and
// an if/else whose arms leave one local at different types for the
// code after the join. It is emitted after the statements and draws
// its random numbers last, so the programs of the other productions
// are what they were.
func (g *progGen) flow() {
	id := g.fns
	g.fns++
	retyped := []string{"0.5", "\"2\"", "$i", "1.5 * $j", "strlen(strval($acc))"}[g.r.Intn(5)]
	armA := []string{"$i", "\"a\" . $i", "2.5", "[$i]"}[g.r.Intn(4)]
	armB := []string{"$acc", "\"b\"", "$i * 0.5", "null"}[g.r.Intn(4)]
	fmt.Fprintf(&g.sb, `
function flow%[1]d($n) {
  $acc = 0;
  $t = 1;
  for ($i = 0; $i < $n; $i++) {
    for ($j = 0; $j < 3; $j++) {
      if (($i + $j) %% %[2]d == %[3]d) { $acc = $acc + %[4]s; } else { $acc = $acc + $j; }
    }
    if ($i %% %[5]d == 0) { $t = %[6]s; } else { $t = %[7]s; }
    $acc = $acc + (is_array($t) ? count($t) : strlen(strval($t)));
  }
  return strval($acc) . ":" . (is_array($t) ? "arr" : strval($t));
}
echo flow%[1]d(%[8]d), ";";
`, id, 2+g.r.Intn(4), g.r.Intn(2), retyped, 2+g.r.Intn(3), armA, armB, 6+g.r.Intn(10))
}

// appends emits a function that builds strings with `.=` and `.`
// chains (ConcatL and ConcatN, DESIGN.md §6 "Strings built in place")
// while other references to the string come and go: a second local, an
// array element, an array key, the string appended to itself. Like
// flow it is emitted, and draws, after everything else.
func (g *progGen) appends() {
	id := g.fns
	g.fns++
	// $s appends itself only under the if below: everywhere, a dozen
	// iterations would grow it past any memory.
	operand := func() string {
		return []string{"\"lit\"", "$i", "$i * 0.5", "strval($i)", "$t", "\"-\" . $i . \"-\"", "null"}[g.r.Intn(7)]
	}
	chain := func() string {
		ops := []string{operand()}
		for n := g.r.Intn(3); n > 0; n-- {
			ops = append(ops, operand())
		}
		return strings.Join(ops, " . ")
	}
	init := []string{"\"\"", "\"x\"", "0", "null", "1.5"}[g.r.Intn(5)]
	hold := []string{"$keep[] = $s;", "$keep[$s] = $i;", "$t = $s;", "$t = \"$s!\";", "$s .= $s;", "$s .= \"<\" . $s . \">\";"}[g.r.Intn(6)]
	fmt.Fprintf(&g.sb, `
function app%[1]d($n) {
  $s = %[2]s;
  $t = "t";
  $keep = [];
  for ($i = 0; $i < $n; $i++) {
    $s .= %[3]s;
    if ($i %% %[4]d == %[5]d) { %[6]s }
    $s = $s . %[7]s;
    $t .= %[8]s;
  }
  $keys = "";
  foreach ($keep as $k => $v) { $keys .= $k . "=" . $v . ","; }
  return strlen($s) . ":" . substr($s, 0, 24) . "|" . strlen($t) . ":" . substr($t, 0, 24) . "|" . strlen($keys) . ":" . substr($keys, 0, 24);
}
echo app%[1]d(%[9]d), ";";
`, id, init, chain(), 2+g.r.Intn(3), g.r.Intn(2), hold, chain(), chain(), 4+g.r.Intn(8))
}

// maps emits a function over a mixed array (DESIGN.md §6 "Arrays"): a
// literal of 2 to 15 entries under string, negative and positive int
// keys, then a loop that stores under dynamic string keys, appends and
// unsets, and a foreach by key that may mutate the array it walks. The
// sizes straddle the 8 entries past which lookups go through the index.
// It is emitted, and draws, after everything else.
func (g *progGen) maps() {
	id := g.fns
	g.fns++
	n := 2 + g.r.Intn(14)
	entries := make([]string, n)
	for j := range entries {
		key := []string{fmt.Sprintf("\"c%d\"", j), fmt.Sprint(j*3 - 4), fmt.Sprintf("\"c%d\"", g.r.Intn(n))}[g.r.Intn(3)]
		val := []string{"$n", fmt.Sprint("\"v", j, "\""), "$n * 0.5"}[g.r.Intn(3)]
		entries[j] = key + " => " + val
	}
	unset := []string{"\"c0\"", "\"d\" . ($i % 3)", "-4", "$i", "$i - 2"}[g.r.Intn(5)]
	body := []string{"", "unset($m[$k]);", "$m[$k . \"x\"] = 1;", "$m[] = $k;"}[g.r.Intn(4)]
	fmt.Fprintf(&g.sb, `
function map%[1]d($n) {
  $m = [%[2]s];
  for ($i = 0; $i < $n; $i++) {
    $m["d" . ($i %% %[3]d)] = $i;
    if ($i %% %[4]d == 0) { unset($m[%[5]s]); }
    if ($i %% %[6]d == 1) { $m[] = "a" . $i; }
  }
  $out = "";
  foreach ($m as $k => $v) { $out .= $k . "=" . $v . ","; %[7]s }
  return count($m) . ":" . $out . implode(",", array_keys($m));
}
echo map%[1]d(%[8]d), ";";
`, id, strings.Join(entries, ", "), 2+g.r.Intn(10), 2+g.r.Intn(3), unset, 2+g.r.Intn(3), body, 3+g.r.Intn(12))
}

func (g *progGen) generate() string {
	// A helper function (polymorphic: int and double call sites).
	g.sb.WriteString(`
function helper($x, $y) {
  if ($x < $y) { return $x + $y; }
  return $x . "-" . $y;
}
function hinted(int $n) { return $n + 1; }
`)
	n := 3 + g.r.Intn(5)
	for i := 0; i < n; i++ {
		g.stmt(2)
	}
	fmt.Fprintf(&g.sb, "echo helper(%d, %d), \";\";\n", g.r.Intn(10), g.r.Intn(10))
	fmt.Fprintf(&g.sb, "echo helper(%d.5, %d), \";\";\n", g.r.Intn(10), g.r.Intn(10))
	for _, v := range g.vars {
		fmt.Fprintf(&g.sb, "echo strval($%s), \";\";\n", v)
	}
	g.flow()
	g.appends()
	g.maps()
	return g.sb.String()
}

func TestDifferentialFuzz(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	// Over every optimized translation of every seed.
	var guards hhir.BuildStats
	var loads hhir.OptStats
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := newProgGen(seed).generate()
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}

		run := func(mode jit.Mode) string {
			cfg := jit.DefaultConfig()
			cfg.Mode = mode
			cfg.ProfileTrigger = 25
			var all strings.Builder
			eng, err := core.NewEngine(unit, cfg, &all)
			if err != nil {
				t.Fatalf("seed %d: engine: %v", seed, err)
			}
			verifyAllocations(t, eng)
			for i := 0; i < 10; i++ {
				if _, err := eng.RunRequest(&all); err != nil {
					t.Fatalf("seed %d [%v] iter %d: %v\n%s", seed, mode, i, err, src)
				}
				// The error-raising production makes JITed helpers raise.
				if msg := heapImbalance(eng.Heap(), mode != jit.ModeInterp); msg != "" {
					t.Fatalf("seed %d [%v] iter %d: %s\n%s", seed, mode, i, msg, src)
				}
				all.WriteString("|")
			}
			g, l := regionGuards(eng)
			guards.Add(g)
			loads.Add(l)
			return all.String()
		}

		want := run(jit.ModeInterp)
		for _, mode := range []jit.Mode{jit.ModeTracelet, jit.ModeRegion} {
			if got := run(mode); got != want {
				t.Errorf("seed %d: %v diverges from interpreter\n got: %.200q\nwant: %.200q\nprogram:\n%s",
					seed, mode, got, want, src)
			}
		}
	}
	t.Logf("optimized translations over %d seeds: guards %s; loads %s", seeds, guards, loads)
	if guards.GuardsProven == 0 || guards.Rebuilds == 0 {
		t.Errorf("the programs never exercised the type flow's proving and rebuilding: %+v", guards)
	}
	if loads.LoadsForwarded == 0 || loads.PhisInserted == 0 {
		t.Errorf("the programs never had a load forwarded across a join: %+v", loads)
	}
}
