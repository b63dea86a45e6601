package vm

import (
	"testing"

	"elfie/internal/isa"
	"elfie/internal/mem"
)

// stepRecord is one OnIns observation: what the hooked step executed.
type stepRecord struct {
	pc  uint64
	ins isa.Inst
}

// hookedRun runs m with an OnIns hook (forcing the per-instruction step
// path) and returns the observed instruction stream.
func hookedRun(t *testing.T, m *Machine) []stepRecord {
	t.Helper()
	var out []stepRecord
	m.Hooks.OnIns = func(_ *Thread, r *InsRecord) {
		out = append(out, stepRecord{r.PC, r.Ins})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStepDecodeTableMatchesFetch: the hooked step reading the block
// cache's per-page decode table executes exactly what the fetch/decode
// interpreter (DisableBlockCache) executes — same instruction stream, same
// final state, same fatal fault — on the cases the table must hand back to
// fetch/decode (unaligned and page-straddling words, a straddling LIMM, an
// undecodable word), on a store that rewrites an already-decoded slot, and
// under eviction with room for two pages.
func TestStepDecodeTableMatchesFetch(t *testing.T) {
	patched := isa.Inst{Op: isa.MOVI, A: 3, Imm: 42}
	bad := isa.Op(255)
	for bad.Valid() {
		bad--
	}
	hop := make([]byte, 4*mem.PageSize)
	for p := 0; p < 3; p++ {
		encAt(hop, p*mem.PageSize,
			isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
			isa.Inst{Op: isa.JMP, Imm: int32(mem.PageSize - 16)})
	}
	last := 3 * mem.PageSize
	encAt(hop, last,
		isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
		isa.Inst{Op: isa.CMPI, B: 9, Imm: 400},
		isa.Inst{Op: isa.JZ, Imm: 0x08},
		isa.Inst{Op: isa.JMP, Imm: int32(-(last + 0x20))},
		isa.Inst{Op: isa.HLT})

	cases := []struct {
		name        string
		code        []byte
		at, start   uint64
		prot, cache int
	}{
		{"cross-page-word", enc(isa.Inst{Op: isa.MOVI, A: 1, Imm: 7}, isa.Inst{Op: isa.HLT}),
			0x1ffc, 0x1ffc, mem.ProtRX, 0},
		{"cross-page-limm", enc(isa.Inst{Op: isa.LIMM, A: 2, Imm64: 0xfeedfacecafe}, isa.Inst{Op: isa.HLT}),
			0x1ff8, 0x1ff8, mem.ProtRX, 0},
		{"undecodable", append(enc(isa.Inst{Op: isa.MOVI, A: 1, Imm: 7}), byte(bad), 0, 0, 0, 0, 0, 0, 0),
			0x1000, 0x1000, mem.ProtRX, 0},
		// The target at 0x1040 runs once (filling its slot), is patched,
		// and runs again: the second run must see the new word.
		{"rewrite-decoded-slot", enc(
			isa.Inst{Op: isa.LIMM, A: 1, Imm64: 0x1040},          // 0x1000
			isa.Inst{Op: isa.LIMM, A: 2, Imm64: leWord(patched)}, // 0x1010
			isa.Inst{Op: isa.MOVI, A: 5, Imm: 0},                 // 0x1020
			isa.Inst{Op: isa.JMP, Imm: 0x10},                     // 0x1028 -> 0x1040
			isa.Inst{Op: isa.STQ, A: 2, B: 1},                    // 0x1030: patch
			isa.Inst{Op: isa.JMP, Imm: 0},                        // 0x1038 -> 0x1040
			isa.Inst{Op: isa.MOVI, A: 3, Imm: 1},                 // 0x1040: target
			isa.Inst{Op: isa.ADDI, A: 5, B: 5, Imm: 1},           // 0x1048
			isa.Inst{Op: isa.CMPI, B: 5, Imm: 2},                 // 0x1050
			isa.Inst{Op: isa.JNZ, Imm: -0x30},                    // 0x1058 -> 0x1030
			isa.Inst{Op: isa.HLT},                                // 0x1060
		), 0x1000, 0x1000, mem.ProtRWX, 0},
		{"eviction", hop, 0x10000, 0x10000, mem.ProtRX, 2},
	}
	for _, tc := range cases {
		var streams [2][]stepRecord
		var ms [2]*Machine
		for i, disable := range []bool{false, true} {
			m, _ := rawMachine(tc.code, tc.at&^pageMask, tc.start, tc.prot)
			m.Proc.AS.WriteNoFault(tc.at, tc.code)
			m.cacheCap = tc.cache
			m.DisableBlockCache = disable
			streams[i], ms[i] = hookedRun(t, m), m
		}
		table, ref := ms[0], ms[1]
		if len(streams[0]) != len(streams[1]) {
			t.Errorf("%s: %d instructions, reference %d", tc.name, len(streams[0]), len(streams[1]))
			continue
		}
		for i := range streams[0] {
			if streams[0][i] != streams[1][i] {
				t.Errorf("%s: instruction %d is %+v, reference %+v", tc.name, i, streams[0][i], streams[1][i])
				break
			}
		}
		if table.Threads[0].Regs != ref.Threads[0].Regs || table.Halted != ref.Halted {
			t.Errorf("%s: final state diverges:\ntable %+v\nref   %+v", tc.name, table.Threads[0].Regs, ref.Threads[0].Regs)
		}
		if (table.FatalFault == nil) != (ref.FatalFault == nil) ||
			table.FatalFault != nil && *table.FatalFault != *ref.FatalFault {
			t.Errorf("%s: fatal fault %v, reference %v", tc.name, table.FatalFault, ref.FatalFault)
		}
		if tc.cache > 0 && len(table.bcache) > tc.cache {
			t.Errorf("%s: cache holds %d pages, capacity %d", tc.name, len(table.bcache), tc.cache)
		}
	}
}
