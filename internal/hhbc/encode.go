package hhbc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/types"
)

// Binary serialization of units: the "bytecode repository" deployed to
// servers in HHVM's architecture (Figure 1 of the paper). The format
// is a simple tagged stream with varint-encoded integers.

const unitMagic = "HHBC\x02"

type encoder struct{ buf bytes.Buffer }

func (e *encoder) u64(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) i64(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *encoder) b(v bool) {
	if v {
		e.buf.WriteByte(1)
	} else {
		e.buf.WriteByte(0)
	}
}

// EncodeUnit serializes u.
func EncodeUnit(u *Unit) []byte {
	var e encoder
	e.buf.WriteString(unitMagic)
	e.u64(uint64(len(u.Strings)))
	for _, s := range u.Strings {
		e.str(s)
	}
	e.u64(uint64(len(u.Ints)))
	for _, v := range u.Ints {
		e.i64(v)
	}
	e.u64(uint64(len(u.Doubles)))
	for _, v := range u.Doubles {
		e.u64(math.Float64bits(v))
	}
	e.u64(uint64(len(u.Funcs)))
	for _, f := range u.Funcs {
		encodeFunc(&e, f)
	}
	e.u64(uint64(len(u.Classes)))
	for _, c := range u.Classes {
		encodeClass(&e, c)
	}
	e.i64(int64(u.Main))
	return e.buf.Bytes()
}

func encodeFunc(e *encoder, f *Func) {
	e.str(f.Name)
	e.str(f.Class)
	e.b(f.IsMethod)
	e.u64(uint64(len(f.Params)))
	for _, p := range f.Params {
		e.str(p.Name)
		e.str(p.TypeHint)
		e.b(p.Nullable)
		e.b(p.HasDefault)
		if p.HasDefault {
			e.u64(uint64(p.DefaultKind))
			e.i64(p.DefaultInt)
			e.u64(math.Float64bits(p.DefaultDbl))
			e.str(p.DefaultStr)
		}
	}
	e.u64(uint64(f.NumLocals))
	e.u64(uint64(len(f.LocalName)))
	for _, n := range f.LocalName {
		e.str(n)
	}
	e.u64(uint64(len(f.Instrs)))
	for _, in := range f.Instrs {
		e.buf.WriteByte(byte(in.Op))
		e.i64(int64(in.A))
		e.i64(int64(in.B))
		e.i64(int64(in.C))
	}
	e.u64(uint64(len(f.EHTable)))
	for _, eh := range f.EHTable {
		e.u64(uint64(eh.Start))
		e.u64(uint64(eh.End))
		e.u64(uint64(eh.Handler))
	}
	e.u64(uint64(len(f.Switches)))
	for _, sw := range f.Switches {
		e.i64(sw.Base)
		e.u64(uint64(len(sw.Targets)))
		for _, t := range sw.Targets {
			e.u64(uint64(t))
		}
		e.u64(uint64(sw.Default))
	}
}

func encodeClass(e *encoder, c *ClassDef) {
	e.str(c.Name)
	e.str(c.Parent)
	e.u64(uint64(len(c.Ifaces)))
	for _, i := range c.Ifaces {
		e.str(i)
	}
	e.u64(uint64(len(c.Props)))
	for _, p := range c.Props {
		e.str(p.Name)
		e.u64(uint64(p.DefaultKind))
		e.i64(p.DefaultInt)
		e.u64(math.Float64bits(p.DefaultDbl))
		e.str(p.DefaultStr)
	}
	e.u64(uint64(len(c.Methods)))
	for _, m := range sortedMethodList(c.Methods) {
		e.str(m.name)
		e.u64(uint64(m.id))
	}
	e.b(c.HasDtor)
}

type methodEnt struct {
	name string
	id   int
}

func sortedMethodList(m map[string]int) []methodEnt {
	out := make([]methodEnt, 0, len(m))
	for n, id := range m {
		out = append(out, methodEnt{n, id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func decodeKind(v uint64) types.Kind { return types.Kind(v) }

type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = errors.New("hhbc: truncated varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.err = errors.New("hhbc: truncated varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.pos) {
		d.err = errors.New("hhbc: truncated string")
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *decoder) b() bool {
	if d.err != nil || d.pos >= len(d.data) {
		d.err = errors.New("hhbc: truncated bool")
		return false
	}
	v := d.data[d.pos] != 0
	d.pos++
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.data) {
		d.err = errors.New("hhbc: truncated byte")
		return 0
	}
	v := d.data[d.pos]
	d.pos++
	return v
}

// DecodeUnit parses a serialized unit and verifies it: the blob comes
// from outside the process, and everything downstream (disassembler,
// hhbbc, interpreter, JIT) indexes pools and jump targets unchecked.
func DecodeUnit(data []byte) (*Unit, error) {
	if len(data) < len(unitMagic) || string(data[:len(unitMagic)]) != unitMagic {
		return nil, errors.New("hhbc: bad magic")
	}
	d := &decoder{data: data, pos: len(unitMagic)}
	u := NewUnit()
	// Every count is checked against d.err as it is consumed: each
	// element takes at least a byte, so a forged count stops at the end
	// of the input instead of allocating.
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		u.Strings = append(u.Strings, d.str())
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		u.Ints = append(u.Ints, d.i64())
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		u.Doubles = append(u.Doubles, math.Float64frombits(d.u64()))
	}
	nf := d.u64()
	for i := uint64(0); i < nf && d.err == nil; i++ {
		f := decodeFunc(d)
		f.ID = int(i)
		u.Funcs = append(u.Funcs, f)
	}
	nc := d.u64()
	for i := uint64(0); i < nc && d.err == nil; i++ {
		u.Classes = append(u.Classes, decodeClass(d))
	}
	u.Main = int(d.i64())
	if d.err != nil {
		return nil, fmt.Errorf("hhbc: decode failed: %w", d.err)
	}
	u.ReindexNames()
	if err := VerifyUnit(u); err != nil {
		return nil, fmt.Errorf("hhbc: decoded unit is malformed: %w", err)
	}
	return u, nil
}

func decodeFunc(d *decoder) *Func {
	f := &Func{}
	f.Name = d.str()
	f.Class = d.str()
	f.IsMethod = d.b()
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		p := Param{Name: d.str(), TypeHint: d.str(), Nullable: d.b(), HasDefault: d.b()}
		if p.HasDefault {
			p.DefaultKind = decodeKind(d.u64())
			p.DefaultInt = d.i64()
			p.DefaultDbl = math.Float64frombits(d.u64())
			p.DefaultStr = d.str()
		}
		f.Params = append(f.Params, p)
	}
	f.NumLocals = int(d.u64())
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		f.LocalName = append(f.LocalName, d.str())
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		in := Instr{Op: Op(d.byte())}
		in.A = int32(d.i64())
		in.B = int32(d.i64())
		in.C = int32(d.i64())
		f.Instrs = append(f.Instrs, in)
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		f.EHTable = append(f.EHTable, EHEnt{int(d.u64()), int(d.u64()), int(d.u64())})
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		sw := SwitchTable{Base: d.i64()}
		for m := d.u64(); m > 0 && d.err == nil; m-- {
			sw.Targets = append(sw.Targets, int(d.u64()))
		}
		sw.Default = int(d.u64())
		f.Switches = append(f.Switches, sw)
	}
	return f
}

func decodeClass(d *decoder) *ClassDef {
	c := &ClassDef{Methods: map[string]int{}}
	c.Name = d.str()
	c.Parent = d.str()
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		c.Ifaces = append(c.Ifaces, d.str())
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		p := PropDef{Name: d.str()}
		p.DefaultKind = decodeKind(d.u64())
		p.DefaultInt = d.i64()
		p.DefaultDbl = math.Float64frombits(d.u64())
		p.DefaultStr = d.str()
		c.Props = append(c.Props, p)
	}
	for n := d.u64(); n > 0 && d.err == nil; n-- {
		name := d.str()
		c.Methods[name] = int(d.u64())
	}
	c.HasDtor = d.b()
	return c
}
