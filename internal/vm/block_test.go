package vm

import (
	"testing"

	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
)

// rawMachine maps code at base with the given protection and returns a
// machine with one thread whose PC starts at start.
func rawMachine(code []byte, base, start uint64, prot int) (*Machine, *Thread) {
	k := kernel.New(kernel.NewFS(), 1)
	proc := kernel.NewProcess(k.FS)
	proc.AS.Map(base, uint64(len(code))+2*mem.PageSize, prot)
	proc.AS.WriteNoFault(base, code)
	m := New(k, proc)
	th := m.AddThread(isa.RegFile{PC: start})
	m.MaxInstructions = 100_000
	return m, th
}

func enc(insts ...isa.Inst) []byte {
	var code []byte
	for _, i := range insts {
		code = i.Encode(code)
	}
	return code
}

// leWord converts an encoded 8-byte instruction to the uint64 a st.q would
// write over it.
func leWord(i isa.Inst) uint64 {
	b := i.Encode(nil)
	var v uint64
	for j := 7; j >= 0; j-- {
		v = v<<8 | uint64(b[j])
	}
	return v
}

// An 8-byte instruction straddling a page boundary must execute on both
// paths: the block cache refuses to predecode it (blocks never span pages)
// and hands it to the per-instruction path.
func TestCrossPageFetch(t *testing.T) {
	for _, disable := range []bool{false, true} {
		code := enc(
			isa.Inst{Op: isa.MOVI, A: 1, Imm: 7}, // at 0x1ffc: 4 bytes in each page
			isa.Inst{Op: isa.HLT},
		)
		m, th := rawMachine(code, 0x1000, 0x1ffc, mem.ProtRX)
		m.Proc.AS.WriteNoFault(0x1ffc, code) // place at the straddling address
		m.DisableBlockCache = disable
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[1] != 7 {
			t.Errorf("disable=%v: r1 = %d, want 7", disable, th.Regs.GPR[1])
		}
		if !m.Halted || th.Retired != 2 {
			t.Errorf("disable=%v: halted=%v retired=%d", disable, m.Halted, th.Retired)
		}
	}
}

// A LIMM whose instruction word sits at the end of one page with the 64-bit
// payload on the next page.
func TestCrossPageLimm(t *testing.T) {
	for _, disable := range []bool{false, true} {
		code := enc(
			isa.Inst{Op: isa.LIMM, A: 2, Imm64: 0xfeedfacecafe}, // word at 0x1ff8, payload at 0x2000
			isa.Inst{Op: isa.HLT},
		)
		m, th := rawMachine(code, 0x1000, 0x1ff8, mem.ProtRX)
		m.Proc.AS.WriteNoFault(0x1ff8, code)
		m.DisableBlockCache = disable
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[2] != 0xfeedfacecafe {
			t.Errorf("disable=%v: r2 = %#x", disable, th.Regs.GPR[2])
		}
	}
}

// Self-modifying code: a store rewrites an instruction *later in the same
// straight-line block*. The block executor must notice the generation bump
// mid-batch and execute the new bytes — same as the per-instruction path.
func TestSelfModifyingCode(t *testing.T) {
	newIns := isa.Inst{Op: isa.MOVI, A: 3, Imm: 42}
	for _, disable := range []bool{false, true} {
		code := enc(
			isa.Inst{Op: isa.LIMM, A: 1, Imm64: 0x1030},         // r1 = &target
			isa.Inst{Op: isa.LIMM, A: 2, Imm64: leWord(newIns)}, // r2 = new instruction word
			isa.Inst{Op: isa.STQ, A: 2, B: 1},                   // overwrite target
			isa.Inst{Op: isa.NOP},                               // 0x1028
			isa.Inst{Op: isa.MOVI, A: 3, Imm: 1},                // 0x1030: target (stale value 1)
			isa.Inst{Op: isa.HLT},                               // 0x1038
		)
		m, th := rawMachine(code, 0x1000, 0x1000, mem.ProtRWX)
		m.DisableBlockCache = disable
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[3] != 42 {
			t.Errorf("disable=%v: executed stale instruction, r3 = %d, want 42",
				disable, th.Regs.GPR[3])
		}
		if th.Retired != 6 {
			t.Errorf("disable=%v: retired = %d, want 6", disable, th.Retired)
		}
	}
}

// Unmap + Map at the same address across two runs of the same machine: the
// block cached during the first run must not serve the old code.
func TestRemapInvalidation(t *testing.T) {
	code1 := enc(isa.Inst{Op: isa.MOVI, A: 5, Imm: 1}, isa.Inst{Op: isa.HLT})
	m, th := rawMachine(code1, 0x1000, 0x1000, mem.ProtRX)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Regs.GPR[5] != 1 {
		t.Fatalf("first run: r5 = %d", th.Regs.GPR[5])
	}

	// Recycle the page: unmap, remap at the same address, new code.
	as := m.Proc.AS
	as.Unmap(0x1000, mem.PageSize)
	as.Map(0x1000, mem.PageSize, mem.ProtRX)
	code2 := enc(isa.Inst{Op: isa.MOVI, A: 5, Imm: 99}, isa.Inst{Op: isa.HLT})
	as.WriteNoFault(0x1000, code2)

	m.Halted = false
	th.Alive = true
	th.Regs.PC = 0x1000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Regs.GPR[5] != 99 {
		t.Errorf("stale block survived remap: r5 = %d, want 99", th.Regs.GPR[5])
	}
}

// fastPathOK: per-instruction observation hooks force the step path;
// syscall/fault hooks are fast-path compatible.
func TestFastPathSelection(t *testing.T) {
	m := &Machine{}
	if !m.fastPathOK() {
		t.Error("bare machine not fast-path eligible")
	}
	m.Hooks.SyscallFilter = func(*Thread, uint64) (kernel.Result, bool) { return kernel.Result{}, false }
	m.Hooks.OnFault = func(*Thread, *mem.Fault) bool { return false }
	m.Hooks.OnBlock = func(*Thread, []isa.DecInst, int) {}
	if !m.fastPathOK() {
		t.Error("syscall/fault/block hooks must not disable the fast path")
	}
	m.Hooks.OnIns = func(*Thread, *InsRecord) {}
	if m.fastPathOK() {
		t.Error("OnIns must disable the fast path")
	}
	m.Hooks.OnIns = nil
	m.DisableBlockCache = true
	if m.fastPathOK() {
		t.Error("DisableBlockCache must disable the fast path")
	}
}

// The block executor and the step path must retire the identical stream on
// a branchy, memory-heavy, syscall-using program: same registers, retired
// counts, output, and exit status.
func TestBlockStepEquivalence(t *testing.T) {
	src := `
		.text
		.global _start
_start:
		movi r1, 0        # i
		movi r2, 0        # sum
		limm r6, buf
loop:
		addi r1, r1, 1
		add  r2, r2, r1
		st.q r2, [r6]
		ld.q r3, [r6]
		push r3
		pop  r4
		cmpi r1, 500
		jnz  loop
		movi r0, 1        # write
		movi r1, 1
		limm r2, msg
		movi r3, 3
		syscall
		movi r0, 231      # exit_group
		movi r1, 7
		syscall
		.data
msg:	.ascii "ok\n"
buf:	.quad 0
	`
	fast := run(t, src, 1)
	slow := load(t, src, 1)
	slow.DisableBlockCache = true
	if err := slow.Run(); err != nil {
		t.Fatal(err)
	}
	if fast.GlobalRetired != slow.GlobalRetired {
		t.Errorf("retired: fast %d, slow %d", fast.GlobalRetired, slow.GlobalRetired)
	}
	if fast.ExitStatus != slow.ExitStatus || fast.ExitStatus != 7 {
		t.Errorf("exit: fast %d, slow %d", fast.ExitStatus, slow.ExitStatus)
	}
	if string(fast.Stdout()) != "ok\n" || string(slow.Stdout()) != "ok\n" {
		t.Errorf("stdout: fast %q slow %q", fast.Stdout(), slow.Stdout())
	}
	ff, sf := fast.Threads[0].Regs, slow.Threads[0].Regs
	if ff.GPR != sf.GPR || ff.Flags != sf.Flags {
		t.Errorf("final registers differ:\nfast %v\nslow %v", ff.GPR, sf.GPR)
	}
}

// A perf counter armed mid-run must overflow at the exact same retired
// count on the block path as on the step path (the graceful-exit contract).
func TestBlockPerfCounterPrecision(t *testing.T) {
	src := `
		.text
		.global _start
_start:
		movi r0, 298      # perf_event_open
		limm r1, attr
		syscall
loop:
		addi r5, r5, 1
		jmp  loop
		.data
attr:
		.quad 1000        # period
		.quad 0           # handler
		.quad 1           # flags: exit on overflow
	`
	for _, disable := range []bool{false, true} {
		m := load(t, src, 1)
		m.DisableBlockCache = disable
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		got := m.Threads[0].Retired
		if disable {
			continue
		}
		slow := load(t, src, 1)
		slow.DisableBlockCache = true
		if err := slow.Run(); err != nil {
			t.Fatal(err)
		}
		if got != slow.Threads[0].Retired {
			t.Errorf("overflow point differs: fast %d, slow %d", got, slow.Threads[0].Retired)
		}
	}
}

// encAt encodes instructions into code at byte offset off. Used by the
// chain-invalidation tests to lay blocks out at explicit addresses so
// PC-relative branch offsets can be written directly.
func encAt(code []byte, off int, insts ...isa.Inst) {
	var b []byte
	for _, i := range insts {
		b = i.Encode(b)
	}
	copy(code[off:], b)
}

// A store that rewrites an instruction inside an already-linked successor
// block must take effect at the very next execution of that instruction:
// the store advances the page-generation clock, which severs every chain
// link before the stale cached successor could run.
//
// Layout (base 0x1000): pass 1 runs start -> bridge -> victim and loops,
// forming the chain links and caching the victim block. Pass 2 takes the
// patch path, whose store rewrites the victim's first instruction, then
// jumps to the (now stale) victim block.
func TestSMCChainedSuccessor(t *testing.T) {
	newIns := isa.Inst{Op: isa.MOVI, A: 3, Imm: 42}
	code := make([]byte, 0x80)
	encAt(code, 0x00, // 0x1000
		isa.Inst{Op: isa.LIMM, A: 1, Imm64: 0x1060},         // r1 = &victim
		isa.Inst{Op: isa.LIMM, A: 2, Imm64: leWord(newIns)}) // r2 = patched word
	encAt(code, 0x20, // start: 0x1020
		isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
		isa.Inst{Op: isa.CMPI, B: 9, Imm: 2},
		isa.Inst{Op: isa.JZ, Imm: 0x10}) // -> patch (0x1048)
	encAt(code, 0x38, // bridge: 0x1038
		isa.Inst{Op: isa.NOP},
		isa.Inst{Op: isa.JMP, Imm: 0x10}) // -> victim block (0x1058)
	encAt(code, 0x48, // patch: 0x1048
		isa.Inst{Op: isa.STQ, A: 2, B: 1}, // rewrite victim instruction
		isa.Inst{Op: isa.JMP, Imm: 0x00})  // -> victim block (0x1058)
	encAt(code, 0x58, // victim block: 0x1058
		isa.Inst{Op: isa.NOP},
		isa.Inst{Op: isa.MOVI, A: 3, Imm: 1}, // 0x1060: victim (stale value 1)
		isa.Inst{Op: isa.CMPI, B: 9, Imm: 2},
		isa.Inst{Op: isa.JNZ, Imm: -0x58}, // -> start
		isa.Inst{Op: isa.HLT})

	var retired [2]uint64
	for mode := 0; mode < 2; mode++ {
		m, th := rawMachine(code, 0x1000, 0x1000, mem.ProtRWX)
		m.DisableBlockCache = mode == 1
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[3] != 42 {
			t.Errorf("mode %d: stale linked successor executed: r3 = %d, want 42",
				mode, th.Regs.GPR[3])
		}
		retired[mode] = th.Retired
	}
	if retired[0] != retired[1] {
		t.Errorf("retired diverges across modes: chained %d, step %d",
			retired[0], retired[1])
	}
}

// smcSuperblockCode builds the mid-superblock SMC workload: a three-block
// loop hot enough to be spliced into a superblock, which then (patch mode)
// rewrites an instruction in a later constituent of the trace from inside
// it. patchAt is the iteration that takes the store path; pass a value
// beyond exitAt to build the never-patching variant.
func smcSuperblockCode(patchAt, exitAt int32) []byte {
	newIns := isa.Inst{Op: isa.MOVI, A: 3, Imm: 42}
	code := make([]byte, 0x78)
	encAt(code, 0x00, // 0x1000
		isa.Inst{Op: isa.LIMM, A: 1, Imm64: 0x1058},         // r1 = &victim
		isa.Inst{Op: isa.LIMM, A: 2, Imm64: leWord(newIns)}) // r2 = patched word
	encAt(code, 0x20, // loop: 0x1020
		isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
		isa.Inst{Op: isa.CMPI, B: 9, Imm: patchAt},
		isa.Inst{Op: isa.JNZ, Imm: 0x08}) // -> skip (0x1040)
	encAt(code, 0x38, // patch path: 0x1038
		isa.Inst{Op: isa.STQ, A: 2, B: 1}) // rewrite victim, fall through
	encAt(code, 0x40, // skip: 0x1040
		isa.Inst{Op: isa.NOP},
		isa.Inst{Op: isa.JMP, Imm: 0x00}) // -> vb (0x1050): a hot chain edge
	encAt(code, 0x50, // vb: 0x1050
		isa.Inst{Op: isa.NOP},
		isa.Inst{Op: isa.MOVI, A: 3, Imm: 1}, // 0x1058: victim (stale value 1)
		isa.Inst{Op: isa.CMPI, B: 9, Imm: exitAt},
		isa.Inst{Op: isa.JNZ, Imm: -0x50}, // -> loop
		isa.Inst{Op: isa.HLT})
	return code
}

// A store that lands mid-superblock — rewriting an instruction in a later
// constituent of the very trace being executed — must take effect before
// that instruction runs again. First pins that the workload really does
// form a cross-branch superblock containing the victim, then checks the
// patched run against the per-instruction path.
func TestSMCMidSuperblock(t *testing.T) {
	// Formation guard: no patch, enough iterations to cross superThreshold.
	m, _ := rawMachine(smcSuperblockCode(1000, 100), 0x1000, 0x1000, mem.ProtRWX)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	spliced := false
	for _, pb := range m.bcache {
		for _, b := range pb.blocks {
			for j, pc := range b.spc {
				if j > 0 && pc == 0x1058 {
					spliced = true
				}
			}
		}
	}
	if !spliced {
		t.Fatal("workload did not splice the victim into a superblock; " +
			"the patched run below would not exercise mid-trace SMC")
	}

	code := smcSuperblockCode(50, 60)
	fast, ft := rawMachine(code, 0x1000, 0x1000, mem.ProtRWX)
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	slow, st := rawMachine(code, 0x1000, 0x1000, mem.ProtRWX)
	slow.DisableBlockCache = true
	if err := slow.Run(); err != nil {
		t.Fatal(err)
	}
	if ft.Regs.GPR[3] != 42 {
		t.Errorf("stale mid-superblock instruction executed: r3 = %d, want 42", ft.Regs.GPR[3])
	}
	if ft.Retired != st.Retired || ft.Regs.GPR != st.Regs.GPR {
		t.Errorf("patched run diverges from step path: retired %d vs %d\nfast %v\nslow %v",
			ft.Retired, st.Retired, ft.Regs.GPR, st.Regs.GPR)
	}
}

// Eviction under a tiny cache capacity: code hopping across four pages
// with room for only two keeps executing correctly — links to evicted
// blocks self-heal through lookupBlock — and the cache stays bounded.
func TestChainEvictionBounded(t *testing.T) {
	const pages = 4
	code := make([]byte, pages*mem.PageSize)
	for p := 0; p < pages-1; p++ {
		encAt(code, p*mem.PageSize,
			isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
			isa.Inst{Op: isa.JMP, Imm: int32(mem.PageSize - 16)}) // -> next page
	}
	last := (pages - 1) * mem.PageSize
	encAt(code, last,
		isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
		isa.Inst{Op: isa.CMPI, B: 9, Imm: 100 * pages},
		isa.Inst{Op: isa.JZ, Imm: 0x08},                   // -> done
		isa.Inst{Op: isa.JMP, Imm: int32(-(last + 0x20))}, // -> page 0
		isa.Inst{Op: isa.HLT})                             // done

	fast, ft := rawMachine(code, 0x10000, 0x10000, mem.ProtRX)
	fast.cacheCap = 2
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	slow, st := rawMachine(code, 0x10000, 0x10000, mem.ProtRX)
	slow.DisableBlockCache = true
	if err := slow.Run(); err != nil {
		t.Fatal(err)
	}
	if ft.Regs.GPR[9] != 100*pages {
		t.Errorf("r9 = %d, want %d", ft.Regs.GPR[9], 100*pages)
	}
	if ft.Retired != st.Retired || ft.Regs.GPR != st.Regs.GPR {
		t.Errorf("eviction run diverges from step path: retired %d vs %d",
			ft.Retired, st.Retired)
	}
	if len(fast.bcache) > 2 {
		t.Errorf("cache holds %d pages, capacity 2", len(fast.bcache))
	}
}
