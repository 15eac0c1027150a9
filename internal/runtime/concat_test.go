package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/shapes"
	"repro/internal/types"
)

// renderings is a value of every kind, with the doubles whose text is
// longest, beside what echo prints for it.
func renderings(h *Heap) (vals []Value, text []string) {
	cls := testClass(shapes.NewTree(), "Box")
	for _, c := range []struct {
		v Value
		s string
	}{
		{Uninit(), ""}, {Null(), ""}, {Bool(true), "1"}, {Bool(false), ""},
		{Int(0), "0"}, {Int(-7), "-7"}, {Int(math.MaxInt64), "9223372036854775807"},
		{Int(math.MinInt64), "-9223372036854775808"},
		{Dbl(2.5), "2.5"}, {Dbl(-999999999999999), "-999999999999999"}, {Dbl(1e15), "1E+15"},
		{Dbl(-math.MaxFloat64), "-1.7976931348623E+308"}, {Dbl(math.SmallestNonzeroFloat64), "4.9406564584125E-324"},
		{Dbl(math.Inf(-1)), "-Inf"}, {Dbl(math.NaN()), "NaN"},
		{h.NewStr("counted"), "counted"}, {StrV(InternStr("static")), "static"}, {h.NewStr(""), ""},
		{ArrV(h.NewPacked(0)), "Array"}, {ObjV(h.NewObject(cls)), "Object(Box)"},
	} {
		vals, text = append(vals, c.v), append(text, c.s)
	}
	return vals, text
}

// TestConcatRendersEveryKind: Concat and ConcatAppend produce what
// joining each operand's own rendering does — the size they allocate up
// front is a bound the rendering never exceeds, or append would have
// moved the bytes and a local extended in place would not see them.
func TestConcatRendersEveryKind(t *testing.T) {
	h := NewHeap()
	vals, text := renderings(h)
	for i, v := range vals {
		if got := v.ToString(); got != text[i] {
			t.Fatalf("operand %d renders as %q, the table says %q", i, got, text[i])
		}
		if n := valueLen(v); n < len(text[i]) || v.Kind != types.KDbl && n != len(text[i]) {
			t.Errorf("valueLen(%q) = %d", text[i], n)
		}
	}
	all := strings.Join(text, "")
	if got := Concat(h, vals); got.AsStr().Data != all || got.AsStr().Refs() != 1 {
		t.Errorf("Concat of every kind = %q (refs %d), want %q", got.AsStr().Data, got.AsStr().Refs(), all)
	}
	// Onto every kind of local, twice: the second append finds the
	// buffer the first one made.
	for i, v := range vals {
		local := v
		h.IncRef(local) // the local's own reference
		ConcatAppend(h, &local, vals)
		ConcatAppend(h, &local, vals[:9])
		if want := text[i] + all + strings.Join(text[:9], ""); local.Kind != types.KStr || local.AsStr().Data != want {
			t.Errorf("%q .= every kind, twice: %q, want %q", text[i], local.ToString(), want)
		}
		h.DecRef(local)
	}
	if h.OverReleases != 0 {
		t.Errorf("%d over-releases", h.OverReleases)
	}
}

// TestAppendNeverChangesRetainedBytes is the rule string bytes rest on
// (DESIGN.md §6, "String bytes on the lists"), as a property: a view
// read out of a string while a reference to it is held — a second
// reference, an array key, a substring, the local's own view until its
// next append — reads the same until that reference is released, after
// any sequence of appends, releases and buffer reuse. And a view kept
// past its release reads the poison its parked buffer was filled with,
// so the checks above would see a buffer recycled under a holder.
func TestAppendNeverChangesRetainedBytes(t *testing.T) {
	h := NewHeap()
	substr, _ := LookupBuiltin("substr")
	ctx := &BuiltinCtx{Heap: h}
	rng := rand.New(rand.NewSource(1))
	type held struct {
		ref        Value // the reference that keeps view valid
		view, copy string
	}
	var holds []held
	checkHolds := func(when string) {
		for _, r := range holds {
			if r.view != r.copy || r.ref.AsStr().Data != r.copy {
				t.Fatalf("%s: a held view reads %.40q (the string %.40q), was %.40q",
					when, r.view, r.ref.AsStr().Data, r.copy)
			}
		}
	}
	keys := h.NewMixed(0)
	keyText := map[string]bool{}
	local := StrV(InternStr(""))
	var own held // the local's view, valid until the local is appended to
	inPlace, parked, poisoned := 0, 0, 0
	for i := 0; i < 1000; i++ {
		if own.view != own.copy {
			t.Fatalf("append %d: the local's view changed before the append: %.40q, was %.40q", i, own.view, own.copy)
		}
		before := local
		part := h.NewStr(strings.Repeat(string(rune('a'+i%26)), 1+rng.Intn(40)))
		ConcatAppend(h, &local, []Value{part, Int(int64(i))})
		h.DecRef(part)
		if local == before {
			inPlace++
		}
		s := local.AsStr()
		own = held{local, s.Data, strings.Clone(s.Data)}
		switch rng.Intn(8) {
		case 0: // a second reference: the next append must leave it alone
			h.IncRef(local)
			holds = append(holds, own)
		case 1: // an array key holds a reference of its own
			keys = keys.Set(h, local, Int(1))
			keyText[own.copy] = true
		case 2: // a substring is a string of its own
			from := len(s.Data) / 2
			sub, err := substr.Fn(ctx, []Value{local, Int(int64(from))})
			if err != nil {
				t.Fatal(err)
			}
			holds = append(holds, held{sub, sub.AsStr().Data, strings.Clone(s.Data[from:])})
		case 3: // start over: the view outlives its last reference
			view, lists := s.Data, h.bufs.parked
			h.DecRef(local)
			if h.bufs.parked > lists {
				parked++
				if strings.Trim(view, "\xdb") == "" {
					poisoned++
				}
			}
			local = h.NewStr("fresh")
			own = held{local, local.AsStr().Data, "fresh"}
		case 4:
			checkHolds(fmt.Sprintf("append %d", i))
			for _, r := range holds {
				h.DecRef(r.ref)
			}
			holds = holds[:0]
		}
	}
	checkHolds("the end")
	keys.Each(func(k, _ Value) bool {
		if !keyText[k.AsStr().Data] {
			t.Errorf("key %.40q is no string that was stored", k.AsStr().Data)
		}
		if _, ok := keys.Get(k); !ok {
			t.Errorf("key %.40q no longer finds its entry", k.AsStr().Data)
		}
		return true
	})
	if inPlace < 500 {
		t.Errorf("only %d of 1000 appends kept the box: the property was not exercised", inPlace)
	}
	if parked < 20 || poisoned != parked {
		t.Errorf("%d of %d views kept past their release read the poison: the check is not live", poisoned, parked)
	}
	if h.OverReleases != 0 {
		t.Errorf("%d over-releases", h.OverReleases)
	}
}

// TestAppendIsAmortised: forty 100-byte appends allocate a logarithmic
// number of buffers, the last at most twice the string.
func TestAppendIsAmortised(t *testing.T) {
	h := NewHeap()
	part := []Value{h.NewStr(strings.Repeat("p", 100))}
	build := func() Value {
		local := StrV(InternStr(""))
		for i := 0; i < 40; i++ {
			ConcatAppend(h, &local, part)
		}
		return local
	}
	local := build()
	s := local.AsStr()
	if len(s.Data) != 4000 || int(s.spare) > len(s.Data) {
		t.Errorf("built %d bytes with %d to spare: the buffer is more than twice the string", len(s.Data), s.spare)
	}
	h.DecRef(local) // the header is on the list from here on
	if got := testing.AllocsPerRun(20, func() { h.DecRef(build()) }); got > 8 {
		t.Errorf("40 appends of 100 bytes: %v allocations, want at most 8 buffers", got)
	}
}

// TestReusedHeaderHasNoSpare: a parked header forgets its buffer, and
// the string it is reused for — here a constant, whose bytes are
// read-only memory — is copied into a buffer of the heap's, so an
// append never writes behind the literal.
func TestReusedHeaderHasNoSpare(t *testing.T) {
	h := NewHeap()
	local := StrV(InternStr(""))
	ConcatAppend(h, &local, []Value{h.NewStr("grown")})
	old := local.AsStr()
	if old.spare <= 0 {
		t.Fatalf("set-up: the appended string has spare %d", old.spare)
	}
	h.DecRef(local)
	if old.spare != 0 || old.Data != "" {
		t.Errorf("parked header keeps %q and spare %d", old.Data, old.spare)
	}
	const lit = "constant"
	reused := h.NewStr(lit)
	if reused.AsStr() != old {
		t.Fatal("the next NewStr did not reuse the parked header")
	}
	if unsafe.StringData(old.Data) == unsafe.StringData(lit) {
		t.Fatal("NewStr kept the literal's memory instead of copying it")
	}
	ConcatAppend(h, &reused, []Value{Int(1)})
	if reused.AsStr().Data != "constant1" || lit != "constant" {
		t.Errorf("append to a reused header: %q", reused.AsStr().Data)
	}
	if unsafe.StringData(reused.AsStr().Data) == unsafe.StringData(lit) {
		t.Error("the append wrote behind a string the header did not allocate")
	}
}

// TestStaticAndSharedStringsAreNeverWritten: only a counted string with
// exactly one reference is extended; the others are replaced in the
// local and keep their bytes and their box.
func TestStaticAndSharedStringsAreNeverWritten(t *testing.T) {
	h := NewHeap()
	x := []Value{h.NewStr("x")}

	static := InternStr("static-append-test")
	local := StrV(static)
	ConcatAppend(h, &local, x)
	if local.AsStr() == static || static.Data != "static-append-test" || !static.Static() {
		t.Errorf("append to a static string: box reused %v, static now %q", local.AsStr() == static, static.Data)
	}

	// Room to spare and a second reference: the room is not used.
	ConcatAppend(h, &local, x)
	shared := local.AsStr()
	if shared.spare <= 0 {
		t.Fatalf("set-up: spare %d", shared.spare)
	}
	other := local
	h.IncRef(other)
	ConcatAppend(h, &local, x)
	if local.AsStr() == shared || other.AsStr().Data != "static-append-testxx" || shared.Refs() != 1 {
		t.Errorf("append to a shared string: box reused %v, the other reference reads %q with %d refs",
			local.AsStr() == shared, other.AsStr().Data, shared.Refs())
	}
	if local.AsStr().Data != "static-append-testxxx" {
		t.Errorf("the local reads %q", local.AsStr().Data)
	}
	// Alone again, it is extended where it lies.
	h.DecRef(local)
	local = other
	ConcatAppend(h, &local, x)
	if local.AsStr() != shared || shared.Data != "static-append-testxxx" {
		t.Errorf("append to the sole reference: box kept %v, %q", local.AsStr() == shared, shared.Data)
	}
	h.DecRef(local)
	h.DecRef(x[0])
	if h.LiveStrs != 0 || h.OverReleases != 0 {
		t.Errorf("%d live strings, %d over-releases", h.LiveStrs, h.OverReleases)
	}
}

// TestInternStrCopiesWhatItKeeps: the intern table is process-wide, so
// it must not keep a request's buffer alive through a view of it — one
// byte cut from a megabyte pinned the megabyte.
func TestInternStrCopiesWhatItKeeps(t *testing.T) {
	big := strings.Repeat("x", 1<<20) + "\x01intern-pin-test"
	tail := big[len(big)-16:]
	s := InternStr(tail)
	if s.Data != tail || !s.Static() {
		t.Fatalf("interned %q, static %v", s.Data, s.Static())
	}
	if unsafe.StringData(s.Data) == unsafe.StringData(tail) {
		t.Error("the intern table holds the caller's buffer, not a copy")
	}
	if again := InternStr(big[len(big)-16:]); again != s {
		t.Error("a second lookup minted a second static string")
	}
}

// FuzzStringOps runs a byte-driven sequence of concatenation, append,
// substr, implode, strval, IncRef and release over a few string slots
// on one heap, against a model of plain Go strings. A slot holds one
// reference of its own; an operand is read the way the bytecode reads a
// local, with a reference held for the operation. Parked buffers are
// poisoned in a test binary, so a buffer recycled while some slot still
// reads it — poisoned at park, overwritten at reuse — shows as a slot
// that no longer matches its model. At the end every slot is released
// and the heap must balance with no over-release.
func FuzzStringOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 0, 2, 2, 1, 2, 0, 3, 3, 2, 5, 7, 2, 0})
	f.Add([]byte{0, 1, 4, 2, 1, 9, 2, 2, 1, 6, 3, 2, 7, 1, 0, 2, 3, 3, 4, 0, 2, 1, 7, 3})
	f.Add([]byte{0, 0, 5, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 0, 0, 6, 1, 0, 2, 0, 0, 7, 1, 0, 3, 2, 1})
	f.Add([]byte{8, 0, 4, 10, 1, 0, 12, 2, 1, 11, 3, 2, 5, 4, 3, 23, 0, 0, 15, 5, 4, 7, 2, 5, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHeap()
		ctx := &BuiltinCtx{Heap: h}
		substr, _ := LookupBuiltin("substr")
		implode, _ := LookupBuiltin("implode")
		strval, _ := LookupBuiltin("strval")
		pieces := []string{"", "a", "hello, ", strings.Repeat("x", 40), strings.Repeat("y", 300), "tail-é", strings.Repeat("z", 5000)}
		const slots = 6
		var vals [slots]Value
		var model [slots]string
		for i := range vals {
			vals[i] = StrV(InternStr(""))
		}
		set := func(i int, v Value, want string) {
			h.DecRef(vals[i])
			vals[i], model[i] = v, want
		}
		call := func(b *Builtin, args ...Value) Value {
			v, err := b.Fn(ctx, args)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		for pos := 0; pos+3 <= len(data); pos += 3 {
			op, a, b := data[pos], int(data[pos+1])%slots, int(data[pos+2])%slots
			piece := pieces[int(data[pos+2])%len(pieces)]
			num := int64(data[pos+1]) - 100
			if len(model[a])+len(model[b]) > 1<<14 {
				op = 7 // a slot that doubles each step would outgrow the machine: start it over
			}
			operand := vals[b] // read as CGetL reads a local: with a reference
			h.IncRef(operand)
			switch op % 8 {
			case 0:
				set(a, h.NewStr(piece), piece)
			case 1:
				v := Concat(h, []Value{operand, StrV(InternStr(piece)), Int(num)})
				set(a, v, model[b]+piece+fmt.Sprint(num))
			case 2:
				ConcatAppend(h, &vals[a], []Value{operand, Int(num)})
				model[a] += model[b] + fmt.Sprint(num)
			case 3:
				from, n := int(num)%7, int(data[pos])%9
				want := model[b]
				if from < 0 {
					from = max(len(want)+from, 0)
				}
				want = want[min(from, len(want)):]
				want = want[:min(n, len(want))]
				set(a, call(substr, operand, Int(int64(from)), Int(int64(n))), want)
			case 4:
				arr := h.NewPacked(3)
				h.IncRef(operand)
				other := vals[a]
				h.IncRef(other)
				arr.elems = append(arr.elems, operand, Int(num), other)
				want := model[b] + piece + fmt.Sprint(num) + piece + model[a]
				v := call(implode, StrV(InternStr(piece)), ArrV(arr))
				h.DecRef(ArrV(arr))
				set(a, v, want)
			case 5:
				if op&8 != 0 {
					set(a, call(strval, Int(num)), fmt.Sprint(num))
				} else {
					set(a, call(strval, operand), model[b])
				}
			case 6:
				h.IncRef(operand)
				set(a, operand, model[b])
			case 7:
				set(a, StrV(InternStr("")), "")
			}
			h.DecRef(operand)
			for i, v := range vals {
				if v.Kind != types.KStr || v.AsStr().Data != model[i] {
					t.Fatalf("after op %d at byte %d: slot %d reads %.60q, model %.60q", op%8, pos, i, v.ToString(), model[i])
				}
			}
		}
		for i := range vals {
			set(i, StrV(InternStr("")), "")
		}
		if h.LiveStrs != 0 || h.OverReleases != 0 {
			t.Errorf("%d live strings, %d over-releases", h.LiveStrs, h.OverReleases)
		}
	})
}
