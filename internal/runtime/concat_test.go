package runtime

import (
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

// TestAppendNeverChangesRetainedBytes is the rule in-place append rests
// on, as a property: whatever was read out of a string — its Data, kept
// by a second reference, an array key or a substring — reads the same
// after any sequence of appends, releases and header reuse.
func TestAppendNeverChangesRetainedBytes(t *testing.T) {
	h := NewHeap()
	rng := rand.New(rand.NewSource(1))
	type seen struct{ view, copy string }
	var retained []seen
	var aliases []Value
	keys := h.NewMixed(0)
	local := StrV(InternStr(""))
	inPlace := 0
	for i := 0; i < 1000; i++ {
		before := local
		part := h.NewStr(strings.Repeat(string(rune('a'+i%26)), 1+rng.Intn(40)))
		ConcatAppend(h, &local, []Value{part, Int(int64(i))})
		h.DecRef(part)
		if local == before {
			inPlace++
		}
		s := local.AsStr()
		retained = append(retained, seen{s.Data, strings.Clone(s.Data)})
		switch rng.Intn(8) {
		case 0: // a second reference: the next append must leave it alone
			h.IncRef(local)
			aliases = append(aliases, local)
		case 1: // an array key keeps the bytes, not a reference
			keys = keys.Set(h, local, Int(1))
		case 2: // so does a substring
			tail := s.Data[len(s.Data)/2:]
			retained = append(retained, seen{tail, strings.Clone(tail)})
		case 3: // start over: the old header is parked and comes back
			h.DecRef(local)
			local = h.NewStr("fresh")
		case 4:
			for _, a := range aliases {
				h.DecRef(a)
			}
			aliases = aliases[:0]
		}
	}
	for i, r := range retained {
		if r.view != r.copy {
			t.Fatalf("bytes read after append %d changed: %.40q, were %.40q", i, r.view, r.copy)
		}
	}
	keys.Each(func(k, _ Value) bool {
		if _, ok := keys.Get(k); !ok {
			t.Errorf("key %.40q no longer finds its entry", k.AsStr().Data)
		}
		return true
	})
	if inPlace < 500 {
		t.Errorf("only %d of 1000 appends kept the box: the property was not exercised", inPlace)
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

// TestReusedHeaderHasNoSpare: a parked header forgets its buffer, so the
// string it is reused for — here a constant, whose bytes are read-only
// memory — is not written behind.
func TestReusedHeaderHasNoSpare(t *testing.T) {
	h := NewHeap()
	local := StrV(InternStr(""))
	ConcatAppend(h, &local, []Value{h.NewStr("grown")})
	old := local.AsStr()
	if old.spare <= 0 {
		t.Fatalf("set-up: the appended string has spare %d", old.spare)
	}
	h.DecRef(local)
	if old.spare != 0 {
		t.Errorf("parked header keeps spare %d", old.spare)
	}
	const lit = "constant"
	reused := h.NewStr(lit)
	if reused.AsStr() != old || old.spare != 0 {
		t.Fatalf("reused %v, spare %d", reused.AsStr() == old, old.spare)
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
