package jumpstart

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/types"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Funcs: []FuncProfile{
			{
				Name: "main", Hash: 0xdeadbeefcafe,
				Trans: []TransProfile{
					{
						PC: 0, EntryDepth: 0,
						Guards: []GuardRepr{
							{Stack: false, Slot: 0, Type: ReprOf(types.TInt)},
							{Stack: false, Slot: 1, Type: ReprOf(types.ObjOfClass("Foo", true))},
						},
						Count: 1200,
					},
					{
						PC: 9, EntryDepth: 1,
						EntryStackTypes: []TypeRepr{ReprOf(types.ArrOfKind(types.ArrayPacked))},
						Count:           880,
					},
				},
				Arcs:        []ArcWeight{{From: 0, To: 1, Weight: 870}},
				CallTargets: []CallTarget{{PC: 4, Class: "Foo", Count: 990}},
			},
			{
				Name: "helper", Hash: 0x1234,
				Trans: []TransProfile{{PC: 0, Count: 42}},
			},
		},
		CallGraph: []CallEdge{{Caller: 0, Callee: 1, Weight: 990}},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Canonicalize(s)) {
		t.Errorf("round trip mismatch:\n got  %+v\n want %+v", got, Canonicalize(s))
	}
	// Encoding is deterministic.
	if string(Encode(got)) != string(data) {
		t.Error("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestTypeReprRoundTrip(t *testing.T) {
	for _, ty := range []types.Type{
		types.TInt, types.TCell, types.TUninit, types.TBottom,
		types.ArrOfKind(types.ArrayMixed), types.ObjOfClass("C", false),
		types.ObjOfClass("D", true), types.TNum, types.TUncounted,
	} {
		back := ReprOf(ty).Type()
		if back.String() != ty.String() {
			t.Errorf("type %s round-tripped to %s", ty, back)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode(sampleSnapshot())

	// Truncation at every proper prefix must error, never panic or
	// succeed — n reaches len(data)-1 so dropping only the final byte
	// (the easiest truncation for a length-prefixed codec to miss) is
	// covered too.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}

	// Every single-byte payload flip must fail the checksum,
	// including the last byte (a stride would skip it).
	for i := 9; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}

	// Wrong magic, wrong version.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[4] = FormatVersion + 1
	if _, err := Decode(bad); err == nil {
		t.Error("future version accepted")
	}
}

// TestLoadRejectsTruncatedFile covers the file path end-to-end: a
// snapshot file cut short at any point — including by a single byte —
// or flipped in its final byte must make Load return an error, not a
// partial snapshot and not a panic. This is the shape of real-world
// damage (a crashed writer, a full disk, a torn copy), and the
// server's jumpstart path trusts Load to reject it.
func TestLoadRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.hhjs")
	s := sampleSnapshot()
	if err := Save(whole, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.hhjs")
	for _, n := range []int{0, 1, 4, len(data) / 2, len(data) - 2, len(data) - 1} {
		if err := os.WriteFile(bad, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := Load(bad); err == nil {
			t.Fatalf("Load accepted a file truncated to %d of %d bytes (got %d trans)",
				n, len(data), snap.NumTrans())
		}
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("Load accepted a file with its final byte flipped")
	}

	// The intact file still loads after all that.
	if _, err := Load(whole); err != nil {
		t.Fatalf("intact file failed to load: %v", err)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prof.hhjs")
	s := sampleSnapshot()
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrans() != s.NumTrans() || got.TotalCount() != s.TotalCount() {
		t.Errorf("loaded %d trans / %d count, want %d / %d",
			got.NumTrans(), got.TotalCount(), s.NumTrans(), s.TotalCount())
	}
}

// randomSnapshot generates a snapshot the way the VM records one:
// distinct function identities, and translations at distinct entry
// pcs within a function, with arcs, call targets and call-graph edges
// among them.
func randomSnapshot(r *rand.Rand) *Snapshot {
	names := []string{"a", "b", "c", "d"}
	s := &Snapshot{}
	nf := 1 + r.Intn(len(names))
	for _, ni := range r.Perm(len(names))[:nf] {
		fp := FuncProfile{Name: names[ni], Hash: uint64(1 + r.Intn(2))}
		for j := 0; j < 1+r.Intn(3); j++ {
			tr := TransProfile{PC: j * 3, Count: uint64(r.Intn(1000))}
			if r.Intn(2) == 0 {
				tr.Guards = append(tr.Guards, GuardRepr{Slot: r.Intn(2), Type: ReprOf(types.TInt)})
			}
			fp.Trans = append(fp.Trans, tr)
		}
		for j := 0; j < r.Intn(4); j++ {
			fp.Arcs = append(fp.Arcs, ArcWeight{
				From: r.Intn(len(fp.Trans)), To: r.Intn(len(fp.Trans)),
				Weight: uint64(1 + r.Intn(100)),
			})
		}
		for j := 0; j < r.Intn(3); j++ {
			fp.CallTargets = append(fp.CallTargets, CallTarget{
				PC: r.Intn(5), Class: names[r.Intn(len(names))], Count: uint64(1 + r.Intn(50)),
			})
		}
		s.Funcs = append(s.Funcs, fp)
	}
	for j := 0; j < r.Intn(4); j++ {
		s.CallGraph = append(s.CallGraph, CallEdge{
			Caller: r.Intn(len(s.Funcs)), Callee: r.Intn(len(s.Funcs)),
			Weight: uint64(1 + r.Intn(100)),
		})
	}
	return s
}

// permuted returns s recorded in another order: functions, each
// function's translations, arcs and call targets, and the call graph
// shuffled, with arc and edge endpoints renumbered to follow.
func permuted(r *rand.Rand, s *Snapshot) *Snapshot {
	out := &Snapshot{Funcs: make([]FuncProfile, len(s.Funcs))}
	fperm := r.Perm(len(s.Funcs)) // old index -> new
	for fi, f := range s.Funcs {
		tperm := r.Perm(len(f.Trans))
		fp := FuncProfile{Name: f.Name, Hash: f.Hash, Trans: make([]TransProfile, len(f.Trans))}
		for ti, tr := range f.Trans {
			fp.Trans[tperm[ti]] = tr
		}
		for _, ai := range r.Perm(len(f.Arcs)) {
			a := f.Arcs[ai]
			fp.Arcs = append(fp.Arcs, ArcWeight{From: tperm[a.From], To: tperm[a.To], Weight: a.Weight})
		}
		for _, ci := range r.Perm(len(f.CallTargets)) {
			fp.CallTargets = append(fp.CallTargets, f.CallTargets[ci])
		}
		out.Funcs[fperm[fi]] = fp
	}
	for _, ei := range r.Perm(len(s.CallGraph)) {
		e := s.CallGraph[ei]
		out.CallGraph = append(out.CallGraph, CallEdge{Caller: fperm[e.Caller], Callee: fperm[e.Callee], Weight: e.Weight})
	}
	return out
}

// TestEncodePermutationInvariant: a profile encodes to the same bytes
// whatever order the VM recorded it in (SnapshotProfile walks maps).
func TestEncodePermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := randomSnapshot(r)
		want := Encode(s)
		for p := 0; p < 4; p++ {
			if got := Encode(permuted(r, s)); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: a permuted recording of %+v encodes differently", trial, s)
			}
		}
	}
}
