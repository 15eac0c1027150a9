package hhbc_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestVerifierChecksEveryImmediateKind: one malformed instruction per
// immediate kind, on the side of its range (or in the unreachable
// code) that used to go unchecked. Each function is otherwise well
// formed (depth-consistent, ends in an exit), so only the immediate can
// be what is rejected — and rejected means an error, not a panic.
func TestVerifierChecksEveryImmediateKind(t *testing.T) {
	cases := []struct {
		name string
		in   hhbc.Instr
		// pre pushes what in pops; post leaves one cell for RetC.
		pre, post []hhbc.Instr
	}{
		{name: "int pool -1", in: hhbc.Instr{Op: hhbc.OpInt, A: -1}},
		{name: "double pool -1", in: hhbc.Instr{Op: hhbc.OpDouble, A: -1}},
		{name: "string pool -1", in: hhbc.Instr{Op: hhbc.OpString, A: -1}},
		{name: "call name -1", in: hhbc.Instr{Op: hhbc.OpFCallD, A: 0, B: -1}},
		{name: "local -1", in: hhbc.Instr{Op: hhbc.OpCGetL, A: -1}},
		{name: "IsTypeL local", in: hhbc.Instr{Op: hhbc.OpIsTypeL, A: 99, B: int32(types.KInt)}},
		{name: "IsTypeL kind set", in: hhbc.Instr{Op: hhbc.OpIsTypeL, A: 0, B: 1 << 9}},
		{name: "IterInitL local", in: hhbc.Instr{Op: hhbc.OpIterInitL, A: 0, B: 1, C: 7}, post: null},
		{name: "iterator -1", in: hhbc.Instr{Op: hhbc.OpIterFree, A: -1}, post: null},
		{name: "iterator past end", in: hhbc.Instr{Op: hhbc.OpIterKey, A: 1 << 20}},
		{name: "jump target in unreachable code", in: hhbc.Instr{Op: hhbc.OpNull},
			post: []hhbc.Instr{{Op: hhbc.OpRetC}, {Op: hhbc.OpJmp, A: -1}}},
		{name: "switch table -1", in: hhbc.Instr{Op: hhbc.OpSwitch, A: -1}, pre: null, post: null},
		{name: "param past end", in: hhbc.Instr{Op: hhbc.OpVerifyParamType, A: 5}, post: null},
		{name: "param -1", in: hhbc.Instr{Op: hhbc.OpVerifyParamType, A: -1}, post: null},
		{name: "count -1", in: hhbc.Instr{Op: hhbc.OpNewPackedArray, A: -1}},
		{name: "NewArray hint -1", in: hhbc.Instr{Op: hhbc.OpNewArray, A: -1}},
		{name: "NewArray hint past the function", in: hhbc.Instr{Op: hhbc.OpNewArray, A: 1 << 30}},
		{name: "ConcatN 0", in: hhbc.Instr{Op: hhbc.OpConcatN, A: 0}},
		{name: "ConcatN 1", in: hhbc.Instr{Op: hhbc.OpConcatN, A: 1}, pre: null},
		{name: "ConcatL 0", in: hhbc.Instr{Op: hhbc.OpConcatL, A: 0, B: 0}, post: null},
		{name: "ConcatL local past end", in: hhbc.Instr{Op: hhbc.OpConcatL, A: 1, B: 2}, pre: null, post: null},
		{name: "ConcatL local -1", in: hhbc.Instr{Op: hhbc.OpConcatL, A: 1, B: -1}, pre: null, post: null},
		{name: "counter -1", in: hhbc.Instr{Op: hhbc.OpIncProfCounter, A: -1}, post: null},
		{name: "inc/dec op", in: hhbc.Instr{Op: hhbc.OpIncDecL, A: 0, B: 4}},
		{name: "RAT array kind", in: hhbc.Instr{Op: hhbc.OpAssertRATL, A: 0, B: int32(types.KArr) | 3<<8}, post: null},
		{name: "RAT class -1", in: hhbc.Instr{Op: hhbc.OpAssertRATL, A: 0, B: int32(types.KObj), C: -1}, post: null},
		{name: "RAT class past end", in: hhbc.Instr{Op: hhbc.OpAssertRATL, A: 0, B: int32(types.KObj), C: 3}, post: null},
		{name: "unknown opcode", in: hhbc.Instr{Op: 250}, post: null},
		{name: "unreachable bad immediate", in: hhbc.Instr{Op: hhbc.OpNull},
			post: []hhbc.Instr{{Op: hhbc.OpRetC}, {Op: hhbc.OpInt, A: 77}, {Op: hhbc.OpRetC}}},
	}
	for _, c := range cases {
		u := hhbc.NewUnit()
		u.InternInt(1)
		u.InternDouble(1)
		u.InternString("s")
		f := &hhbc.Func{Name: "f", NumLocals: 2, Params: []hhbc.Param{{Name: "p"}},
			Switches: []hhbc.SwitchTable{{Targets: []int{0}, Default: 0}}}
		f.Instrs = append(f.Instrs, c.pre...)
		f.Instrs = append(f.Instrs, c.in)
		f.Instrs = append(f.Instrs, c.post...)
		if !f.Instrs[len(f.Instrs)-1].Op.IsUnconditionalExit() {
			f.Instrs = append(f.Instrs, hhbc.Instr{Op: hhbc.OpRetC})
		}
		u.AddFunc(f)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: verifier panicked: %v", c.name, r)
				}
			}()
			if err := hhbc.VerifyFunc(u, f); err == nil {
				t.Errorf("%s: accepted %v", c.name, c.in)
			}
		}()
	}
	// The well-formed shape the cases above perturb does verify.
	u := hhbc.NewUnit()
	f := &hhbc.Func{Name: "ok", NumLocals: 1, Instrs: []hhbc.Instr{
		{Op: hhbc.OpNull}, {Op: hhbc.OpConcatL, A: 1, B: 0},
		{Op: hhbc.OpCGetL}, {Op: hhbc.OpNull}, {Op: hhbc.OpConcatN, A: 2},
		{Op: hhbc.OpNewArray, A: 1}, {Op: hhbc.OpPopC}, {Op: hhbc.OpRetC}}}
	u.AddFunc(f)
	if err := hhbc.VerifyFunc(u, f); err != nil {
		t.Errorf("well-formed function rejected: %v", err)
	}
}

var null = []hhbc.Instr{{Op: hhbc.OpNull}}

// TestDecodeVerifies: a blob that parses but names a pool entry that
// does not exist is an error from DecodeUnit, not a unit.
func TestDecodeVerifies(t *testing.T) {
	u := hhbc.NewUnit()
	f := &hhbc.Func{Name: "main", Instrs: []hhbc.Instr{{Op: hhbc.OpString, A: 3}, {Op: hhbc.OpRetC}}}
	u.Main = u.AddFunc(f)
	if _, err := hhbc.DecodeUnit(hhbc.EncodeUnit(u)); err == nil {
		t.Error("DecodeUnit returned a unit whose String instruction indexes past the pool")
	}
	f.Instrs[0] = hhbc.Instr{Op: hhbc.OpNull}
	if _, err := hhbc.DecodeUnit(hhbc.EncodeUnit(u)); err != nil {
		t.Errorf("the same unit with the instruction fixed: %v", err)
	}
}

// seedUnits compiles the site and the examples' guest programs.
func seedUnits(t testing.TB) []*hhbc.Unit {
	site, _ := workload.Combined()
	srcs := []string{site}
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	guest := regexp.MustCompile("(?s)const src = `(.*?)`")
	for _, path := range mains {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := guest.FindSubmatch(text); m != nil {
			srcs = append(srcs, string(m[1]))
		}
	}
	var units []*hhbc.Unit
	for _, src := range srcs {
		u, err := core.Compile(strings.TrimPrefix(src, "<?php"), core.CompileOptions{})
		if err != nil {
			t.Fatalf("seed program does not compile: %v", err)
		}
		units = append(units, u)
	}
	return units
}

// FuzzDecodeUnit: DecodeUnit either rejects a blob or returns a unit
// the rest of the package can walk blindly, and re-encoding it is a
// fixed point.
func FuzzDecodeUnit(f *testing.F) {
	var seen [256]bool
	hinted := false
	for _, u := range seedUnits(f) {
		f.Add(hhbc.EncodeUnit(u))
		for _, fn := range u.Funcs {
			for _, in := range fn.Instrs {
				seen[in.Op] = true
				hinted = hinted || in.Op == hhbc.OpNewArray && in.A > 0
			}
		}
	}
	if !seen[hhbc.OpConcatN] || !seen[hhbc.OpConcatL] || !hinted {
		f.Fatal("no seed unit uses ConcatN, ConcatL and a hinted NewArray")
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		u, err := hhbc.DecodeUnit(blob)
		if err != nil {
			return
		}
		for _, fn := range u.Funcs {
			_ = hhbc.Disassemble(u, fn)
			_ = fn.BytecodeHash(u)
		}
		once := hhbc.EncodeUnit(u)
		u2, err := hhbc.DecodeUnit(once)
		if err != nil {
			t.Fatalf("re-encoded unit does not decode: %v", err)
		}
		if twice := hhbc.EncodeUnit(u2); !bytes.Equal(once, twice) {
			t.Fatalf("EncodeUnit∘DecodeUnit is not a fixed point: %d vs %d bytes", len(once), len(twice))
		}
	})
}
