// Package lexer tokenizes the PHP-subset source language.
package lexer

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

const (
	TEOF TokKind = iota
	TInt
	TFloat
	TString // single- or double-quoted literal, already unescaped
	TVar    // $name
	TIdent  // bare identifier or keyword
	TOp     // operator / punctuation
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // identifier/operator text or literal spelling
	Int  int64
	Dbl  float64
	Str  string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "<eof>"
	case TVar:
		return "$" + t.Text
	case TString:
		return fmt.Sprintf("%q", t.Str)
	default:
		return t.Text
	}
}

// Keywords of the subset.
var keywords = map[string]bool{
	"function": true, "return": true, "if": true, "else": true, "elseif": true,
	"while": true, "for": true, "foreach": true, "as": true, "break": true,
	"continue": true, "class": true, "extends": true, "implements": true,
	"interface": true, "new": true, "public": true, "private": true,
	"protected": true, "static": true, "echo": true, "true": true,
	"false": true, "null": true, "throw": true, "try": true, "catch": true,
	"instanceof": true, "switch": true, "case": true, "default": true,
	"unset": true, "isset": true, "and": true, "or": true, "xor": true,
}

// Lexer scans source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a lexer over src. A leading "<?php" marker is skipped.
func New(src string) *Lexer {
	l := &Lexer{src: src, line: 1, col: 1}
	l.skipSpace()
	if strings.HasPrefix(l.src[l.pos:], "<?php") {
		l.advance(5)
	}
	if strings.HasPrefix(l.src[l.pos:], "<?hh") {
		l.advance(4)
	}
	return l
}

// Error is a lexical error with position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("lex error at %d:%d: %s", e.Line, e.Col, e.Msg) }

func (l *Lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *Lexer) peek() byte {
	if l.pos < len(l.src) {
		return l.src[l.pos]
	}
	return 0
}

func (l *Lexer) peek2() byte {
	if l.pos+1 < len(l.src) {
		return l.src[l.pos+1]
	}
	return 0
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.peek2() == '*':
			l.advance(2)
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peek2() == '/') {
				l.advance(1)
			}
			l.advance(2)
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdent(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TEOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case c == '$':
		l.advance(1)
		if !isIdentStart(l.peek()) {
			return tok, l.errf("expected variable name after $")
		}
		start := l.pos
		for l.pos < len(l.src) && isIdent(l.src[l.pos]) {
			l.advance(1)
		}
		tok.Kind = TVar
		tok.Text = l.src[start:l.pos]
		return tok, nil
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdent(l.src[l.pos]) {
			l.advance(1)
		}
		tok.Kind = TIdent
		tok.Text = l.src[start:l.pos]
		return tok, nil
	case isDigit(c) || c == '.' && isDigit(l.peek2()):
		return l.number()
	case c == '"' || c == '\'':
		return l.stringLit(c)
	default:
		return l.operator()
	}
}

func (l *Lexer) number() (Token, error) {
	tok := Token{Line: l.line, Col: l.col}
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.advance(1)
	}
	if l.peek() == '.' && isDigit(l.peek2()) {
		isFloat = true
		l.advance(1)
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.advance(1)
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.pos
		l.advance(1)
		if l.peek() == '+' || l.peek() == '-' {
			l.advance(1)
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.advance(1)
			}
		} else {
			l.pos = save
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		var d float64
		if _, err := fmt.Sscanf(text, "%g", &d); err != nil {
			return tok, l.errf("bad float literal %q", text)
		}
		tok.Kind = TFloat
		tok.Dbl = d
	} else {
		var n int64
		if _, err := fmt.Sscanf(text, "%d", &n); err != nil {
			return tok, l.errf("bad int literal %q", text)
		}
		tok.Kind = TInt
		tok.Int = n
	}
	tok.Text = text
	return tok, nil
}

func (l *Lexer) stringLit(quote byte) (Token, error) {
	tok := Token{Line: l.line, Col: l.col, Kind: TString}
	l.advance(1)
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return tok, l.errf("unterminated string")
		}
		c := l.src[l.pos]
		if c == quote {
			l.advance(1)
			break
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			n := l.src[l.pos+1]
			if quote == '"' {
				switch n {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '\\', '"', '$':
					sb.WriteByte(n)
				default:
					sb.WriteByte('\\')
					sb.WriteByte(n)
				}
			} else {
				switch n {
				case '\\', '\'':
					sb.WriteByte(n)
				default:
					sb.WriteByte('\\')
					sb.WriteByte(n)
				}
			}
			l.advance(2)
			continue
		}
		sb.WriteByte(c)
		l.advance(1)
	}
	tok.Str = sb.String()
	tok.Text = string(quote) // quote kind, for interpolation decisions
	return tok, nil
}

// multi-char operators, longest first.
var operators = []string{
	"===", "!==", "<=>", "**=", "...", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "++", "--",
	"+=", "-=", "*=", "/=", ".=", "%=", "<<", ">>", "**", "??",
	"+", "-", "*", "/", "%", ".", "=", "<", ">", "!", "(", ")", "{", "}",
	"[", "]", ";", ",", "?", ":", "&", "|", "^", "~", "@",
}

func (l *Lexer) operator() (Token, error) {
	tok := Token{Line: l.line, Col: l.col, Kind: TOp}
	rest := l.src[l.pos:]
	for _, op := range operators {
		if strings.HasPrefix(rest, op) {
			tok.Text = op
			l.advance(len(op))
			return tok, nil
		}
	}
	return tok, l.errf("unexpected character %q", l.peek())
}

// Tokenize scans the whole input.
func Tokenize(src string) ([]Token, error) {
	l := New(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TEOF {
			return toks, nil
		}
	}
}
