package vm

import (
	"testing"

	"elfie/internal/isa"
	"elfie/internal/mem"
)

// TestInsRecordPerClass checks the record OnIns receives for every
// instruction class of the step path: each load and store size, the
// read-modify-write atomics, the stack and call/return instructions, the
// taken and not-taken conditional branches, indirect jumps, the XSAVE
// area, the 16-byte vector accesses and the marker tags. The table lists
// the instructions in execution order, each at its own pc.
func TestInsRecordPerClass(t *testing.T) {
	steps, m, th := recordProgram(t)

	var got []InsRecord
	m.Hooks.OnIns = func(_ *Thread, r *InsRecord) { got = append(got, *r) }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.FatalFault != nil || !m.Halted {
		t.Fatalf("run ended early: fault %v, halted %v\n%s", m.FatalFault, m.Halted, m.DumpState())
	}
	if len(got) != len(steps) || uint64(len(got)) != th.Retired {
		t.Fatalf("%d records for %d retired instructions, want %d", len(got), th.Retired, len(steps))
	}
	for i, s := range steps {
		want := s.want
		want.PC, want.Ins = s.pc, s.ins
		if got[i] != want {
			t.Errorf("%s at %#x:\n got %+v\nwant %+v", s.ins.Op.Name(), s.pc, got[i], want)
		}
	}
}

// recordStep is one instruction of recordProgram: where it is, what it is,
// and the record it retires with (PC and Ins left zero).
type recordStep struct {
	pc   uint64
	ins  isa.Inst
	want InsRecord
}

// recordProgram builds a machine whose program runs one instruction of
// every class, each at its own pc, in the order the table lists them.
func recordProgram(t *testing.T) ([]recordStep, *Machine, *Thread) {
	t.Helper()
	const (
		base  = 0x1000
		data  = 0x10000
		stack = 0x12000
		xarea = 0x10800
		slot  = 0x1300 // JMPM's target slot
	)
	r := func(addr uint64, size int) InsRecord { return InsRecord{MemR: true, MemAddr: addr, MemSize: size} }
	w := func(addr uint64, size int) InsRecord { return InsRecord{MemW: true, MemAddr: addr, MemSize: size} }
	rw := func(addr uint64) InsRecord { return InsRecord{MemR: true, MemW: true, MemAddr: addr, MemSize: 8} }
	br := func(rec InsRecord, taken bool, target uint64) InsRecord {
		rec.Branch, rec.Taken, rec.Target = true, taken, target
		return rec
	}
	steps := []recordStep{
		{0x1000, isa.Inst{Op: isa.LDB, A: 3, B: 1, Imm: 1}, r(data+1, 1)},
		{0x1008, isa.Inst{Op: isa.LDH, A: 3, B: 1, Imm: 2}, r(data+2, 2)},
		{0x1010, isa.Inst{Op: isa.LDW, A: 3, B: 1, Imm: 4}, r(data+4, 4)},
		{0x1018, isa.Inst{Op: isa.LDQ, A: 3, B: 1, Imm: 8}, r(data+8, 8)},
		{0x1020, isa.Inst{Op: isa.LDSB, A: 3, B: 1, Imm: 1}, r(data+1, 1)},
		{0x1028, isa.Inst{Op: isa.LDSH, A: 3, B: 1, Imm: 2}, r(data+2, 2)},
		{0x1030, isa.Inst{Op: isa.LDSW, A: 3, B: 1, Imm: 4}, r(data+4, 4)},
		{0x1038, isa.Inst{Op: isa.STB, A: 2, B: 1, Imm: 0x21}, w(data+0x21, 1)},
		{0x1040, isa.Inst{Op: isa.STH, A: 2, B: 1, Imm: 0x22}, w(data+0x22, 2)},
		{0x1048, isa.Inst{Op: isa.STW, A: 2, B: 1, Imm: 0x24}, w(data+0x24, 4)},
		{0x1050, isa.Inst{Op: isa.STQ, A: 2, B: 1, Imm: 0x28}, w(data+0x28, 8)},
		{0x1058, isa.Inst{Op: isa.XCHG, A: 2, B: 1, Imm: 0x30}, rw(data + 0x30)},
		{0x1060, isa.Inst{Op: isa.XADD, A: 2, B: 1, Imm: 0x30}, rw(data + 0x30)},
		{0x1068, isa.Inst{Op: isa.CMPXCHG, A: 2, B: 1, Imm: 0x30}, rw(data + 0x30)},
		{0x1070, isa.Inst{Op: isa.PUSH, A: 2}, w(stack-8, 8)},
		{0x1078, isa.Inst{Op: isa.POP, A: 3}, r(stack-8, 8)},
		{0x1080, isa.Inst{Op: isa.PUSHF}, w(stack-8, 8)},
		{0x1088, isa.Inst{Op: isa.POPF}, r(stack-8, 8)},
		{0x1090, isa.Inst{Op: isa.CALL, Imm: 0x1200 - 0x1098}, br(w(stack-8, 8), true, 0x1200)},
		{0x1200, isa.Inst{Op: isa.RET}, br(r(stack-8, 8), true, 0x1098)},
		{0x1098, isa.Inst{Op: isa.LIMM, A: 5, Imm64: 0x1210}, InsRecord{}},
		{0x10a8, isa.Inst{Op: isa.CALLR, B: 5}, br(w(stack-8, 8), true, 0x1210)},
		{0x1210, isa.Inst{Op: isa.RET}, br(r(stack-8, 8), true, 0x10b0)},
		{0x10b0, isa.Inst{Op: isa.JMPM, Imm: slot - 0x10b8}, br(r(slot, 8), true, 0x10b8)},
		{0x10b8, isa.Inst{Op: isa.CMPI, B: 9, Imm: 0}, InsRecord{}},
		{0x10c0, isa.Inst{Op: isa.JZ, Imm: 0}, br(InsRecord{}, true, 0x10c8)},
		{0x10c8, isa.Inst{Op: isa.JNZ, Imm: 0x100}, br(InsRecord{}, false, 0x11d0)},
		{0x10d0, isa.Inst{Op: isa.LIMM, A: 6, Imm64: 0x10e8}, InsRecord{}},
		{0x10e0, isa.Inst{Op: isa.JMPR, B: 6}, br(InsRecord{}, true, 0x10e8)},
		{0x10e8, isa.Inst{Op: isa.JMP, Imm: 0}, br(InsRecord{}, true, 0x10f0)},
		{0x10f0, isa.Inst{Op: isa.XSAVE, A: 7}, w(xarea, isa.XSaveSize)},
		{0x10f8, isa.Inst{Op: isa.XRSTOR, A: 7}, r(xarea, isa.XSaveSize)},
		{0x1100, isa.Inst{Op: isa.VLD, A: 1, B: 1, Imm: 0x40}, r(data+0x40, 16)},
		{0x1108, isa.Inst{Op: isa.VST, A: 1, B: 1, Imm: 0x50}, w(data+0x50, 16)},
		// A marker's record is its instruction: the tag is Ins.Imm.
		{0x1110, isa.Inst{Op: isa.SSCMARK, Imm: 0x1234}, InsRecord{}},
		{0x1118, isa.Inst{Op: isa.MAGIC, Imm: 5}, InsRecord{}},
		{0x1120, isa.Inst{Op: isa.CPUID, A: 3, Imm: 9}, InsRecord{}},
		{0x1128, isa.Inst{Op: isa.ADD, A: 4, B: 4, C: 4}, InsRecord{}},
		{0x1130, isa.Inst{Op: isa.HLT}, InsRecord{}},
	}
	code := make([]byte, 0x400)
	for _, s := range steps {
		encAt(code, int(s.pc-base), s.ins)
	}
	putBytes(code[slot-base:slot-base+8], 0x10b8)
	m, th := rawMachine(code, base, base, mem.ProtRWX)
	m.Proc.AS.Map(data, stack-data, mem.ProtRW)
	th.Regs.GPR[1] = data
	th.Regs.GPR[2] = 0x1122334455667788
	th.Regs.GPR[7] = xarea
	th.Regs.GPR[isa.RSP] = stack
	return steps, m, th
}

// TestTraceMatchesRecord: with Hooks.Trace set, the trace entry of every
// retired instruction of recordProgram holds what its record says — the
// data address of a memory access, the outcome of a conditional branch —
// on the chained core (and on step for the instructions only step runs),
// and on the plain interpreter, where step reports every instruction.
func TestTraceMatchesRecord(t *testing.T) {
	for _, interp := range []bool{false, true} {
		steps, m, th := recordProgram(t)
		m.DisableBlockCache = interp
		var pcs, trace []uint64
		longest := 0
		m.Hooks.Trace = true
		m.Hooks.OnBlock = func(_ *Thread, ins []isa.DecInst, reps int) {
			for j := range ins {
				pcs = append(pcs, ins[j].PC())
				trace = append(trace, m.Trace()[j])
			}
			longest = max(longest, reps*len(ins))
		}
		if m.fastPathOK() == interp {
			t.Fatalf("interp=%v: fast path %v", interp, m.fastPathOK())
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.FatalFault != nil || !m.Halted || len(trace) != len(steps) || uint64(len(trace)) != th.Retired {
			t.Fatalf("interp=%v: run ended early or misreported: %d entries, %d retired, %d steps\n%s",
				interp, len(trace), th.Retired, len(steps), m.DumpState())
		}
		if !interp && longest < 2 {
			t.Fatal("no multi-instruction run reported; chained core not taken")
		}
		for i, s := range steps {
			var want uint64
			switch {
			case s.want.MemR || s.want.MemW:
				want = s.want.MemAddr
			case isa.IsCondBranch(s.ins.Op):
				if s.want.Taken {
					want = 1
				}
			default:
				continue
			}
			if pcs[i] != s.pc || trace[i] != want {
				t.Errorf("interp=%v: %s at %#x (reported at %#x): trace %#x, want %#x",
					interp, s.ins.Op.Name(), s.pc, pcs[i], trace[i], want)
			}
		}
	}
}
