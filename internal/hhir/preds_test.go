package hhir

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/types"
)

// TestPredsMatchSuccs: on random CFGs — mid-block guard edges, jumps,
// branches and switch tables, then edits (retargeted edges, dropped and
// added instructions, blocks taken out of the unit) — RecomputePreds
// lists, for every block, exactly the blocks a brute-force scan of
// every block's successors finds, in the same order. The lists share
// one backing array: appending to one must leave every other list as
// it was.
func TestPredsMatchSuccs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		u := NewUnit(&hhbc.Func{Name: "f"})
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			u.NewBlock(i)
		}
		u.Entry = u.Blocks[0]
		pick := func() *Block { return u.Blocks[rng.Intn(len(u.Blocks))] }
		v := u.NewTmp(types.TInt)
		for _, b := range u.Blocks {
			for k := rng.Intn(3); k > 0; k-- {
				b.Instrs = append(b.Instrs, &Instr{Op: CheckType, Args: []*SSATmp{v}, Taken: pick(), Block: b})
			}
			switch rng.Intn(4) {
			case 0:
				b.Instrs = append(b.Instrs, &Instr{Op: Jmp, Next: pick(), Block: b})
			case 1:
				b.Instrs = append(b.Instrs, &Instr{Op: Branch, Args: []*SSATmp{v}, Taken: pick(), Next: pick(), Block: b})
			case 2:
				tbl := make([]*Block, rng.Intn(4))
				for i := range tbl {
					tbl[i] = pick()
				}
				b.Instrs = append(b.Instrs, &Instr{Op: SwitchInt, Args: []*SSATmp{v}, Table: tbl, Taken: pick(), Block: b})
			default:
				b.Instrs = append(b.Instrs, &Instr{Op: Ret, Args: []*SSATmp{v}, Block: b})
			}
		}
		u.RecomputePreds()
		checkPreds(t, u)
		for edit := 0; edit < 4; edit++ {
			b := pick()
			switch rng.Intn(4) {
			case 0: // retarget an edge
				for _, in := range b.Instrs {
					if in.Taken != nil {
						in.Taken = pick()
						break
					}
				}
			case 1: // kill an instruction
				if len(b.Instrs) > 0 {
					b.Instrs[rng.Intn(len(b.Instrs))].dead = true
				}
			case 2: // a new guard edge
				b.Instrs = slices.Insert(b.Instrs, 0, &Instr{Op: CheckType, Args: []*SSATmp{v}, Taken: pick(), Block: b})
			default: // drop a block from the unit (edges into it stay)
				if len(u.Blocks) > 1 {
					i := 1 + rng.Intn(len(u.Blocks)-1)
					u.Blocks = slices.Delete(u.Blocks, i, i+1)
				}
			}
			u.RecomputePreds()
			checkPreds(t, u)
		}
	}
}

func checkPreds(t *testing.T, u *Unit) {
	t.Helper()
	want := map[*Block][]*Block{}
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			succs := append([]*Block{in.Taken, in.Next}, in.Table...)
			for _, s := range succs {
				if s != nil {
					want[s] = append(want[s], b)
				}
			}
		}
	}
	for _, b := range u.Blocks {
		if !slices.Equal(b.Preds, want[b]) {
			t.Fatalf("B%d: preds %v, want %v\n%s", b.ID, blockIDs(b.Preds), blockIDs(want[b]), u)
		}
	}
	// Appending to one list leaves every other one alone.
	saved := map[*Block][]*Block{}
	for _, b := range u.Blocks {
		saved[b] = slices.Clone(b.Preds)
	}
	for _, b := range u.Blocks {
		b.Preds = append(b.Preds, b)
		for _, o := range u.Blocks {
			if o != b && !slices.Equal(o.Preds, saved[o]) {
				t.Fatalf("appending to B%d's preds changed B%d's: %v, was %v", b.ID, o.ID, blockIDs(o.Preds), blockIDs(saved[o]))
			}
		}
		b.Preds = b.Preds[:len(b.Preds)-1]
	}
}
