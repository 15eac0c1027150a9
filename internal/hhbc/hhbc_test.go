package hhbc_test

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/types"
)

func compile(t *testing.T, src string) *hhbc.Unit {
	t.Helper()
	u, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	u := compile(t, `
class P { public $x = 1; function get() { return $this->x; } }
function f(int $a, $b = "d") {
  $m = ["k" => 1];
  foreach ($m as $k => $v) { $a += $v; }
  switch ($a) { case 1: return 1; case 2: return 2; case 3: return 3; default: return 0; }
}
try { echo f(1); } catch (Exception $e) { echo "x"; }
`)
	blob := hhbc.EncodeUnit(u)
	u2, err := hhbc.DecodeUnit(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Funcs) != len(u.Funcs) || len(u2.Classes) != len(u.Classes) {
		t.Fatalf("structure changed: %d/%d funcs, %d/%d classes",
			len(u2.Funcs), len(u.Funcs), len(u2.Classes), len(u.Classes))
	}
	for i, f := range u.Funcs {
		g := u2.Funcs[i]
		if f.FullName() != g.FullName() || !reflect.DeepEqual(f.Instrs, g.Instrs) ||
			!reflect.DeepEqual(f.EHTable, g.EHTable) ||
			!reflect.DeepEqual(f.Switches, g.Switches) {
			t.Errorf("func %s changed across roundtrip", f.FullName())
		}
	}
	if err := hhbc.VerifyUnit(u2); err != nil {
		t.Errorf("decoded unit fails verification: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := hhbc.DecodeUnit([]byte("not a unit")); err == nil {
		t.Error("garbage decoded without error")
	}
	u := compile(t, `echo 1;`)
	blob := hhbc.EncodeUnit(u)
	// Truncations must error, not panic.
	for _, n := range []int{6, len(blob) / 2, len(blob) - 1} {
		if n >= len(blob) {
			continue
		}
		if _, err := hhbc.DecodeUnit(blob[:n]); err == nil {
			t.Errorf("truncated blob (%d bytes) decoded without error", n)
		}
	}
}

// Property: encode(decode(encode(u))) == encode(u).
func TestEncodeDeterministic(t *testing.T) {
	u := compile(t, `function g($x) { return $x * 2; } echo g(21);`)
	b1 := hhbc.EncodeUnit(u)
	u2, err := hhbc.DecodeUnit(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := hhbc.EncodeUnit(u2)
	if !reflect.DeepEqual(b1, b2) {
		t.Error("encoding is not a fixpoint across decode")
	}
}

func TestVerifierCatchesBadBytecode(t *testing.T) {
	u := hhbc.NewUnit()
	f := &hhbc.Func{Name: "bad", NumLocals: 1}
	// Jump out of range.
	f.Instrs = []hhbc.Instr{{Op: hhbc.OpJmp, A: 99}}
	u.AddFunc(f)
	if err := hhbc.VerifyFunc(u, f); err == nil {
		t.Error("out-of-range jump not caught")
	}
	// Stack underflow.
	f2 := &hhbc.Func{Name: "bad2"}
	f2.Instrs = []hhbc.Instr{{Op: hhbc.OpPopC}, {Op: hhbc.OpRetC}}
	u.AddFunc(f2)
	if err := hhbc.VerifyFunc(u, f2); err == nil {
		t.Error("stack underflow not caught")
	}
	// Falling off the end.
	f3 := &hhbc.Func{Name: "bad3"}
	f3.Instrs = []hhbc.Instr{{Op: hhbc.OpNull}}
	u.AddFunc(f3)
	if err := hhbc.VerifyFunc(u, f3); err == nil {
		t.Error("fallthrough off end not caught")
	}
}

// Property: RAT encoding roundtrips for every representable type.
func TestRATRoundtrip(t *testing.T) {
	u := hhbc.NewUnit()
	samples := []types.Type{
		types.TInt, types.TDbl, types.TStr, types.TArr, types.TObj,
		types.TNull, types.TUninit, types.TCell, types.TUncounted,
		types.ArrOfKind(types.ArrayPacked), types.ArrOfKind(types.ArrayMixed),
		types.ObjOfClass("Foo", true), types.ObjOfClass("Bar", false),
		types.TNum, types.TInitCell,
	}
	for _, ty := range samples {
		b, c := u.EncodeRAT(ty)
		got := u.DecodeRAT(b, c)
		if !(got.SubtypeOf(ty) && ty.SubtypeOf(got)) {
			t.Errorf("RAT roundtrip changed %v -> %v", ty, got)
		}
	}
	// Fuzz kind bitsets.
	f := func(bits uint8) bool {
		ty := types.FromKind(types.Kind(bits))
		b, c := u.EncodeRAT(ty)
		got := u.DecodeRAT(b, c)
		return got.SubtypeOf(ty) && ty.SubtypeOf(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleMentionsNames(t *testing.T) {
	u := compile(t, `function f($arr) { return count($arr); } echo f([1]);`)
	f, _ := u.FuncByName("f")
	dis := hhbc.Disassemble(u, f)
	if dis == "" || len(dis) < 40 {
		t.Errorf("disassembly too short: %q", dis)
	}
}

// TestConcatOpsDisassembleAndRoundtrip: the two string-building
// bytecodes print from the opcode table like any other (count, then the
// local by name) and survive encode/decode.
func TestConcatOpsDisassembleAndRoundtrip(t *testing.T) {
	u := compile(t, `function f($a, $n) { $out = "<" . $a . ":" . $n; $out .= "-" . $n . ">"; return $out; } echo f("x", 1);`)
	f, _ := u.FuncByName("f")
	dis := hhbc.Disassemble(u, f)
	for _, want := range []string{"ConcatN 4\n", "ConcatL 3 L:2($out)\n"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, dis)
		}
	}
	if strings.Count(dis, "CGetL L:2($out)") != 1 { // the return's
		t.Errorf("the append still reads its local onto the stack:\n%s", dis)
	}
	u2, err := hhbc.DecodeUnit(hhbc.EncodeUnit(u))
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := u2.FuncByName("f")
	if again := hhbc.Disassemble(u2, f2); again != dis {
		t.Errorf("after a round trip:\n%s\nbefore:\n%s", again, dis)
	}
}

// TestNewArrayCarriesItsHint: a mixed literal's NewArray names the
// literal's entry count, the capacity Heap.NewMixed allocates; the
// disassembly prints it and it survives encode/decode. A packed
// literal is a NewPackedArray and has no NewArray.
func TestNewArrayCarriesItsHint(t *testing.T) {
	cases := []struct{ lit, want string }{
		{`[1, 2]`, "NewPackedArray 2\n"},
		{`["a" => 1]`, "NewArray 1\n"},
		{`["a" => 1, 2, "b" => $x]`, "NewArray 3\n"},
		{`[5 => 1, 6 => 2, 7 => 3, 8 => 4]`, "NewArray 4\n"},
		{`["a" => 1, "a" => 2]`, "NewArray 2\n"}, // a repeated key still counts
		{`[` + strings.Repeat(`"k" . $x => 1, `, 40) + `]`, "NewArray 40\n"},
	}
	for _, c := range cases {
		u := compile(t, `function f($x) { return `+c.lit+`; } echo count(f(1));`)
		f, _ := u.FuncByName("f")
		dis := hhbc.Disassemble(u, f)
		if !strings.Contains(dis, c.want) || strings.Count(dis, "NewArray") != strings.Count(c.want, "NewArray") {
			t.Errorf("%s: want %q and no other NewArray in\n%s", c.lit, c.want, dis)
		}
		u2, err := hhbc.DecodeUnit(hhbc.EncodeUnit(u))
		if err != nil {
			t.Fatalf("%s: %v", c.lit, err)
		}
		f2, _ := u2.FuncByName("f")
		if !reflect.DeepEqual(f.Instrs, f2.Instrs) {
			t.Errorf("%s: instructions changed across encode/decode", c.lit)
		}
	}
}

func TestInternDoubleKeepsBitPatterns(t *testing.T) {
	u := hhbc.NewUnit()
	zero, negZero := u.InternDouble(0), u.InternDouble(math.Copysign(0, -1))
	if zero == negZero || !math.Signbit(u.Doubles[negZero]) {
		t.Errorf("-0.0 was pooled with 0.0: indexes %d / %d", zero, negZero)
	}
	if u.InternDouble(math.NaN()) != u.InternDouble(math.NaN()) || u.InternDouble(0) != zero {
		t.Error("equal bit patterns must share a pool entry")
	}
}

// TestFuncByNameAllocatesNothing: the interpreter resolves every
// FCallD by name, and a mixed-case name such as renderCard must not
// cost a lower-cased copy per call, whether the lookup hits or misses.
func TestFuncByNameAllocatesNothing(t *testing.T) {
	u := hhbc.NewUnit()
	u.AddFunc(&hhbc.Func{Name: "renderCard"})
	u.AddFunc(&hhbc.Func{Name: "render", Class: "Card"})
	for _, name := range []string{"renderCard", "RENDERCARD", "card::Render"} {
		if f, ok := u.FuncByName(name); !ok || !strings.EqualFold(f.FullName(), name) {
			t.Errorf("FuncByName(%q) = %v, %v", name, f, ok)
		}
	}
	if f, ok := u.FuncByName("renderCards"); ok {
		t.Errorf("FuncByName found %s for a name it does not have", f.FullName())
	}
	for _, name := range []string{"renderCard", "NoSuchFunction"} {
		if got := testing.AllocsPerRun(100, func() { u.FuncByName(name) }); got != 0 {
			t.Errorf("FuncByName(%q): %v allocations, want 0", name, got)
		}
	}
}
