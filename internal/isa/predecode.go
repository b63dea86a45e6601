package isa

// DecInst is one predecoded instruction, the unit of the VM's decoded
// basic-block cache. Relative to Inst it is "executed form": register fields
// are pre-masked to valid indices (so the executor can index the register
// file without bounds checks), the immediate is pre-sign-extended (or, for
// LIMM, replaced by the 64-bit payload), and the sequential / branch-target
// addresses are precomputed so the hot loop does no address arithmetic.
type DecInst struct {
	Op      Op
	A, B, C uint8  // register fields, masked to 0..15
	Imm     uint64 // sign-extended Imm; LIMM payload for LIMM
	Next    uint64 // address of the next sequential instruction
	Target  uint64 // direct branch target, or JMPM slot address
}

// PC returns the address of the instruction itself, recovered from Next.
// The VM's superblock builder uses it to record per-instruction PCs so
// trace side exits can be taken with precise architectural state.
func (d *DecInst) PC() uint64 {
	if d.Op == LIMM {
		return d.Next - LimmLen
	}
	return d.Next - InstLen
}

// Predecode returns the executed form of ins, located at pc.
func (i Inst) Predecode(pc uint64) DecInst {
	d := DecInst{
		Op:   i.Op,
		A:    i.A & 15,
		B:    i.B & 15,
		C:    i.C & 15,
		Imm:  uint64(int64(i.Imm)),
		Next: pc + i.Len(),
	}
	if i.Op == LIMM {
		d.Imm = i.Imm64
	}
	// Precompute the PC-relative target for direct branches and the JMPM
	// literal-slot address.
	switch i.Op {
	case JMP, JZ, JNZ, JL, JLE, JG, JGE, JB, JBE, JA, JAE, JS, JNS,
		CALL, JMPM:
		d.Target = i.BranchTarget(pc)
	}
	return d
}

// PredecodeBlock decodes a straight-line run of instructions from code,
// which holds the executable bytes at address base. Decoding stops after
// the first control-transfer instruction (IsBranch — the block terminator,
// included in the block), at the first undecodable or truncated word
// (excluded: the interpreter's slow path will raise the fault with precise
// state), or after max instructions. The returned slice owns its memory and
// does not alias code.
func PredecodeBlock(code []byte, base uint64, max int) []DecInst {
	out := make([]DecInst, 0, 16)
	off := uint64(0)
	for len(out) < max {
		ins, n, err := Decode(code[off:])
		if err != nil {
			break
		}
		out = append(out, ins.Predecode(base+off))
		off += n
		if IsBranch(ins.Op) {
			break
		}
		if off >= uint64(len(code)) {
			break
		}
	}
	return out
}
