package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the pprof CPU profile format (gzipped
// profile.proto), enough to fold sample values by function name. It
// exists so host time can be attributed to packages without touching
// the program and without a new module dependency.

// hostSharePkgs are the buckets of the host-time attribution, in
// report order.
var hostSharePkgs = []string{"machine", "interp", "runtime", "jit", "vm", "shapes",
	"profile", "mcode", "go_gc", "go_malloc", "other"}

// profStack is one sample: its function names leaf first, and its
// value in the profile's last sample type (CPU nanoseconds).
type profStack struct {
	funcs []string
	value int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	varnt uint64
	bytes []byte
}

var errTruncated = errors.New("profile.proto: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varnt, rest, err = readVarint(rest)
			if err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = readVarint(rest)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, errTruncated
			}
			f.bytes, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errTruncated
			}
			rest = rest[4:]
		default:
			return nil, fmt.Errorf("profile.proto: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field in either encoding
// (packed or one field per element).
func repeatedVarints(f protoField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.varnt), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into = append(into, v)
		b = rest
	}
	return into, nil
}

// parseProfile decodes a gzipped profile.proto into stacks of
// function names.
func parseProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile.proto: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile.proto: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarints(sf, s.locs)
				case 2:
					s.values, err = repeatedVarints(sf, s.values)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.varnt
				case 4: // Line
					ls, err := readFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.varnt)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.varnt
				case 2:
					name = ff.varnt
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}

	var out []profStack
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profStack{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pkgOf returns the import path of a Go symbol name such as
// "repro/internal/machine.(*Machine).Exec".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// hostBucket attributes one stack. The Go collector and allocator are
// singled out wherever they appear on the stack; any other time in
// the Go runtime or standard library is charged to the nearest caller
// inside this module, because it is that layer's call that costs it.
func hostBucket(funcs []string) string {
	for _, fn := range funcs {
		if pkgOf(fn) != "runtime" {
			continue
		}
		name := strings.TrimPrefix(fn, "runtime.")
		switch {
		case strings.HasPrefix(name, "gc"), strings.HasPrefix(name, "bgsweep"),
			strings.HasPrefix(name, "bgscavenge"), strings.Contains(name, "sweep"),
			strings.HasPrefix(name, "scanobject"), strings.HasPrefix(name, "greyobject"),
			strings.HasPrefix(name, "markroot"), strings.HasPrefix(name, "wbBufFlush"):
			return "go_gc"
		case strings.HasPrefix(name, "mallocgc"):
			return "go_malloc"
		}
	}
	for _, fn := range funcs {
		if pkg, ok := strings.CutPrefix(pkgOf(fn), "repro/internal/"); ok {
			for _, known := range hostSharePkgs {
				if pkg == known {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

// hostShares folds a CPU profile into each bucket's share of the
// sampled time.
func hostShares(profile []byte) (map[string]float64, error) {
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, st := range stacks {
		shares[hostBucket(st.funcs)] += float64(st.value)
		total += float64(st.value)
	}
	if total == 0 {
		return nil, errors.New("CPU profile has no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}
