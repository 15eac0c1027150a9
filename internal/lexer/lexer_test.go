package lexer_test

import (
	"testing"

	"repro/internal/lexer"
)

func kinds(t *testing.T, src string) []lexer.Token {
	t.Helper()
	toks, err := lexer.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := kinds(t, `<?php $x = 42 + 3.5; // comment`)
	want := []struct {
		kind lexer.TokKind
		text string
	}{
		{lexer.TVar, "x"}, {lexer.TOp, "="}, {lexer.TInt, "42"},
		{lexer.TOp, "+"}, {lexer.TFloat, "3.5"}, {lexer.TOp, ";"},
		{lexer.TEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind {
			t.Errorf("token %d kind = %v", i, toks[i].Kind)
		}
	}
	if toks[2].Int != 42 || toks[4].Dbl != 3.5 {
		t.Error("literal values wrong")
	}
}

func TestStringEscapes(t *testing.T) {
	toks := kinds(t, `"a\nb" 'c\nd'`)
	if toks[0].Str != "a\nb" {
		t.Errorf("double-quoted escape: %q", toks[0].Str)
	}
	if toks[1].Str != `c\nd` {
		t.Errorf("single-quoted should not unescape \\n: %q", toks[1].Str)
	}
}

func TestMultiCharOperators(t *testing.T) {
	toks := kinds(t, `=== !== <= >= && || -> => :: ++ .= <=>`)
	want := []string{"===", "!==", "<=", ">=", "&&", "||", "->", "=>", "::", "++", ".=", "<=>"}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("op %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestComments(t *testing.T) {
	toks := kinds(t, "1 // line\n2 # hash\n3 /* block\nstill */ 4")
	if len(toks) != 5 { // 4 ints + EOF
		t.Fatalf("comments not skipped: %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks := kinds(t, "$a\n  $b")
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("positions wrong: %+v %+v", toks[0], toks[1])
	}
}

func TestErrors(t *testing.T) {
	if _, err := lexer.Tokenize(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lexer.Tokenize("`"); err == nil {
		t.Error("unknown character accepted")
	}
	if _, err := lexer.Tokenize("$ x"); err == nil {
		t.Error("bare $ accepted")
	}
}

// TestNumberLiterals pins the number scanner: values, the decimal
// reading of a leading zero, the int64 edge and its overflow error, and
// the positions after a dangling exponent, which is backed out of the
// number — column included, so later tokens and errors point at the
// right place.
func TestNumberLiterals(t *testing.T) {
	type tok struct {
		kind lexer.TokKind
		text string
		col  int
	}
	for _, c := range []struct {
		src  string
		want []tok
	}{
		{"2e+ $x", []tok{{lexer.TInt, "2", 1}, {lexer.TIdent, "e", 2}, {lexer.TOp, "+", 3}, {lexer.TVar, "x", 5}}},
		{"0123", []tok{{lexer.TInt, "0123", 1}}},
		{"9223372036854775807", []tok{{lexer.TInt, "9223372036854775807", 1}}},
		{"1.5e3", []tok{{lexer.TFloat, "1.5e3", 1}}},
		{".5 1E-2", []tok{{lexer.TFloat, ".5", 1}, {lexer.TFloat, "1E-2", 4}}},
	} {
		toks := kinds(t, c.src)
		if len(toks) != len(c.want)+1 || toks[len(toks)-1].Kind != lexer.TEOF {
			t.Errorf("%q: tokens %v, want %d and EOF", c.src, toks, len(c.want))
			continue
		}
		for i, w := range c.want {
			if g := toks[i]; g.Kind != w.kind || g.Text != w.text || g.Col != w.col || g.Line != 1 {
				t.Errorf("%q: token %d is %v (kind %d) at %d:%d, want %q (kind %d) at 1:%d",
					c.src, i, g, g.Kind, g.Line, g.Col, w.text, w.kind, w.col)
			}
		}
	}
	values := kinds(t, "0123 9223372036854775807 1.5e3 .5")
	if values[0].Int != 123 || values[1].Int != 9223372036854775807 || values[2].Dbl != 1500 || values[3].Dbl != 0.5 {
		t.Errorf("values %d %d %g %g, want 123 9223372036854775807 1500 0.5",
			values[0].Int, values[1].Int, values[2].Dbl, values[3].Dbl)
	}
	_, err := lexer.Tokenize("$a = 9223372036854775808;")
	if want := `lex error at 1:25: bad int literal "9223372036854775808"`; err == nil || err.Error() != want {
		t.Errorf("overflow: %v, want %s", err, want)
	}
}
