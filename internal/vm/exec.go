package vm

import (
	"math"

	"elfie/internal/fault"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
)

// runThread executes up to quantum instructions on t, returning how many
// actually retired. It stops early on yield (PAUSE/sched_yield), thread
// exit, machine halt, or an unhandled fault.
//
// When no per-instruction instrumentation is installed the decoded-block
// fast path runs instead (see block.go); both paths retire the identical
// architectural instruction stream.
func (m *Machine) runThread(t *Thread, quantum int) int {
	if m.fastPathOK() {
		return m.runThreadFast(t, quantum)
	}
	ran := 0
	for ran < quantum && t.Alive && !m.Halted && !m.stopReq.Load() {
		yielded, retired := m.step(t)
		if retired {
			ran++
		}
		if yielded {
			break
		}
	}
	return ran
}

// step executes one instruction. It returns (yielded, retired): yielded
// requests a scheduler switch; retired reports whether an instruction
// actually completed (a faulting instruction that the fault hook asks to
// retry does not retire).
func (m *Machine) step(t *Thread) (yielded, retired bool) {
	as := m.Proc.AS
	pc := t.Regs.PC

	// Fault injection: synthetic faults at a retired-instruction threshold.
	// A PageFault goes through the normal fault path (an OnFault hook may
	// recover it); an UngracefulExit kills the process outright — the
	// divergent-ELFie death mode.
	if m.FaultInj != nil {
		if pt, fire := m.FaultInj.VMFault(m.GlobalRetired); fire {
			f := &mem.Fault{Addr: pc, Access: mem.AccessExec}
			if pt == fault.UngracefulExit {
				m.fatalFault(t, f)
				return true, false
			}
			return m.handleFault(t, f), false
		}
	}

	// The page's decode table serves most instructions (see stepInst);
	// the rest are fetched and decoded here, with precise faults.
	var ins isa.Inst
	if p := m.stepInst(pc); p != nil {
		ins = *p
	} else {
		// Fetch. Instructions are 8 bytes; LIMM needs 8 more.
		if err := as.Fetch(pc, m.fetchBuf[:isa.InstLen]); err != nil {
			return m.handleFault(t, err), false
		}
		n := isa.InstLen
		if isa.Op(m.fetchBuf[0]) == isa.LIMM {
			if err := as.Fetch(pc+isa.InstLen, m.fetchBuf[isa.InstLen:]); err != nil {
				return m.handleFault(t, err), false
			}
			n = isa.LimmLen
		}
		var err error
		if ins, _, err = isa.Decode(m.fetchBuf[:n]); err != nil {
			// Undecodable bytes behave like an illegal-instruction fault.
			m.fatalFault(t, &mem.Fault{Addr: pc, Access: mem.AccessExec})
			return true, false
		}
	}

	// Reset the record in place: a composite literal would be built in a
	// stack temporary and copied over.
	rec := &m.rec
	*rec = InsRecord{}
	rec.PC, rec.Ins = pc, ins
	next := pc + ins.Len()
	r := &t.Regs
	g := &r.GPR
	// Register fields are masked to the architectural 0..15 range; encodings
	// with out-of-range fields alias into it rather than escaping the
	// register file (the block executor masks identically).
	a, b, c := isa.Reg(ins.A&15), isa.Reg(ins.B&15), isa.Reg(ins.C&15)
	imm := uint64(int64(ins.Imm))
	var exit, status int // set by a SYSCALL that ends the thread or process

	switch ins.Op {
	case isa.NOP, isa.FENCE:
	case isa.HLT:
		m.Halted = true
	case isa.PAUSE:
		yielded = !m.PauseDoesNotYield

	case isa.MOV:
		g[a] = g[b]
	case isa.MOVI:
		g[a] = imm
	case isa.LIMM:
		g[a] = ins.Imm64

	case isa.ADD:
		g[a] = g[b] + g[c]
	case isa.SUB:
		g[a] = g[b] - g[c]
	case isa.MUL:
		g[a] = g[b] * g[c]
	case isa.UDIV:
		if g[c] == 0 {
			g[a] = ^uint64(0)
		} else {
			g[a] = g[b] / g[c]
		}
	case isa.SDIV:
		if g[c] == 0 {
			g[a] = ^uint64(0)
		} else {
			g[a] = uint64(int64(g[b]) / int64(g[c]))
		}
	case isa.UREM:
		if g[c] == 0 {
			g[a] = g[b]
		} else {
			g[a] = g[b] % g[c]
		}
	case isa.AND:
		g[a] = g[b] & g[c]
	case isa.OR:
		g[a] = g[b] | g[c]
	case isa.XOR:
		g[a] = g[b] ^ g[c]
	case isa.SHL:
		g[a] = g[b] << (g[c] & 63)
	case isa.SHR:
		g[a] = g[b] >> (g[c] & 63)
	case isa.SAR:
		g[a] = uint64(int64(g[b]) >> (g[c] & 63))
	case isa.NOT:
		g[a] = ^g[b]
	case isa.NEG:
		g[a] = -g[b]

	case isa.ADDI:
		g[a] = g[b] + imm
	case isa.MULI:
		g[a] = g[b] * imm
	case isa.ANDI:
		g[a] = g[b] & imm
	case isa.ORI:
		g[a] = g[b] | imm
	case isa.XORI:
		g[a] = g[b] ^ imm
	case isa.SHLI:
		g[a] = g[b] << (imm & 63)
	case isa.SHRI:
		g[a] = g[b] >> (imm & 63)
	case isa.SARI:
		g[a] = uint64(int64(g[b]) >> (imm & 63))

	case isa.LEA1:
		g[a] = g[b] + g[c] + imm
	case isa.LEA8:
		g[a] = g[b] + g[c]*8 + imm

	case isa.LDB, isa.LDH, isa.LDW, isa.LDQ, isa.LDSB, isa.LDSH, isa.LDSW:
		addr := g[b] + imm
		size := isa.MemSize(ins.Op)
		rec.MemR, rec.MemAddr, rec.MemSize = true, addr, size
		v, ok := as.LoadFast(addr, size)
		if !ok {
			var buf [8]byte
			if err := as.Read(addr, buf[:size]); err != nil {
				return m.handleFault(t, err), false
			}
			v = leBytes(buf[:size])
		}
		switch ins.Op {
		case isa.LDSB:
			v = uint64(int64(int8(v)))
		case isa.LDSH:
			v = uint64(int64(int16(v)))
		case isa.LDSW:
			v = uint64(int64(int32(v)))
		}
		g[a] = v

	case isa.STB, isa.STH, isa.STW, isa.STQ:
		addr := g[b] + imm
		size := isa.MemSize(ins.Op)
		rec.MemW, rec.MemAddr, rec.MemSize = true, addr, size
		if !as.StoreFast(addr, g[a], size) {
			var buf [8]byte
			putBytes(buf[:], g[a])
			if err := as.Write(addr, buf[:size]); err != nil {
				return m.handleFault(t, err), false
			}
		}

	case isa.CMP, isa.CMPI:
		rhs := g[c]
		if ins.Op == isa.CMPI {
			rhs = imm
		}
		r.Flags = subFlags(g[b], rhs)
	case isa.TEST, isa.TESTI:
		rhs := g[c]
		if ins.Op == isa.TESTI {
			rhs = imm
		}
		r.Flags = logicFlags(g[b] & rhs)

	case isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
		taken := condTaken(ins.Op, r.Flags)
		target := ins.BranchTarget(pc)
		rec.Branch, rec.Taken, rec.Target = true, taken, target
		if taken {
			next = target
		}
	case isa.JMPR:
		next = g[b]
		rec.Branch, rec.Taken, rec.Target = true, true, next
	case isa.JMPM:
		slot := ins.BranchTarget(pc)
		rec.MemR, rec.MemAddr, rec.MemSize = true, slot, 8
		v, err := as.ReadU64(slot)
		if err != nil {
			return m.handleFault(t, err), false
		}
		rec.Branch, rec.Taken, rec.Target = true, true, v
		next = v
	case isa.CALL, isa.CALLR:
		target := ins.BranchTarget(pc)
		if ins.Op == isa.CALLR {
			target = g[b]
		}
		rec.MemW, rec.MemAddr, rec.MemSize = true, g[isa.RSP]-8, 8
		g[isa.RSP] -= 8
		if err := as.WriteU64(g[isa.RSP], next); err != nil {
			g[isa.RSP] += 8
			return m.handleFault(t, err), false
		}
		rec.Branch, rec.Taken, rec.Target = true, true, target
		next = target
	case isa.RET:
		rec.MemR, rec.MemAddr, rec.MemSize = true, g[isa.RSP], 8
		v, err := as.ReadU64(g[isa.RSP])
		if err != nil {
			return m.handleFault(t, err), false
		}
		g[isa.RSP] += 8
		rec.Branch, rec.Taken, rec.Target = true, true, v
		next = v

	case isa.PUSH, isa.PUSHF:
		v := g[a]
		if ins.Op == isa.PUSHF {
			v = r.Flags
		}
		rec.MemW, rec.MemAddr, rec.MemSize = true, g[isa.RSP]-8, 8
		g[isa.RSP] -= 8
		if err := as.WriteU64(g[isa.RSP], v); err != nil {
			g[isa.RSP] += 8
			return m.handleFault(t, err), false
		}
	case isa.POP, isa.POPF:
		rec.MemR, rec.MemAddr, rec.MemSize = true, g[isa.RSP], 8
		v, err := as.ReadU64(g[isa.RSP])
		if err != nil {
			return m.handleFault(t, err), false
		}
		g[isa.RSP] += 8
		if ins.Op == isa.POPF {
			r.Flags = v & isa.FlagMask
		} else {
			g[a] = v
		}

	case isa.SYSCALL:
		yielded, exit, status = m.doSyscall(t)

	case isa.CPUID:
		g[a] = 0x50564d31 // "PVM1" feature word
	case isa.SSCMARK, isa.MAGIC:
	case isa.RDTSC:
		g[a] = m.Kernel.Clock.Now(m.GlobalRetired)

	case isa.XCHG, isa.XADD, isa.CMPXCHG:
		addr := g[b] + imm
		rec.MemR, rec.MemW, rec.MemAddr, rec.MemSize = true, true, addr, 8
		old, err := as.ReadU64(addr)
		if err != nil {
			return m.handleFault(t, err), false
		}
		switch ins.Op {
		case isa.XCHG:
			if err := as.WriteU64(addr, g[a]); err != nil {
				return m.handleFault(t, err), false
			}
			g[a] = old
		case isa.XADD:
			if err := as.WriteU64(addr, old+g[a]); err != nil {
				return m.handleFault(t, err), false
			}
			g[a] = old
		case isa.CMPXCHG:
			if old == g[isa.R0] {
				if err := as.WriteU64(addr, g[a]); err != nil {
					return m.handleFault(t, err), false
				}
				r.Flags = isa.FlagZ
			} else {
				g[isa.R0] = old
				r.Flags = 0
			}
		}

	case isa.WRFSBASE:
		r.FSBase = g[a]
	case isa.RDFSBASE:
		g[a] = r.FSBase
	case isa.WRGSBASE:
		r.GSBase = g[a]
	case isa.RDGSBASE:
		g[a] = r.GSBase

	case isa.XSAVE:
		area := isa.XSave(r)
		rec.MemW, rec.MemAddr, rec.MemSize = true, g[a], len(area)
		if err := as.Write(g[a], area); err != nil {
			return m.handleFault(t, err), false
		}
	case isa.XRSTOR:
		rec.MemR, rec.MemAddr, rec.MemSize = true, g[a], isa.XSaveSize
		area := make([]byte, isa.XSaveSize)
		if err := as.Read(g[a], area); err != nil {
			return m.handleFault(t, err), false
		}
		isa.XRstor(r, area)

	case isa.VLD:
		addr := g[b] + imm
		rec.MemR, rec.MemAddr, rec.MemSize = true, addr, 16
		var buf [16]byte
		if err := as.Read(addr, buf[:]); err != nil {
			return m.handleFault(t, err), false
		}
		r.V[ins.A&7][0] = leBytes(buf[:8])
		r.V[ins.A&7][1] = leBytes(buf[8:])
	case isa.VST:
		addr := g[b] + imm
		rec.MemW, rec.MemAddr, rec.MemSize = true, addr, 16
		var buf [16]byte
		putBytes(buf[:8], r.V[ins.A&7][0])
		putBytes(buf[8:], r.V[ins.A&7][1])
		if err := as.Write(addr, buf[:]); err != nil {
			return m.handleFault(t, err), false
		}
	case isa.VADDQ:
		r.V[ins.A&7][0] = r.V[ins.B&7][0] + r.V[ins.C&7][0]
		r.V[ins.A&7][1] = r.V[ins.B&7][1] + r.V[ins.C&7][1]
	case isa.VMULQ:
		r.V[ins.A&7][0] = r.V[ins.B&7][0] * r.V[ins.C&7][0]
		r.V[ins.A&7][1] = r.V[ins.B&7][1] * r.V[ins.C&7][1]
	case isa.VXOR:
		r.V[ins.A&7][0] = r.V[ins.B&7][0] ^ r.V[ins.C&7][0]
		r.V[ins.A&7][1] = r.V[ins.B&7][1] ^ r.V[ins.C&7][1]
	case isa.VMOVQ:
		r.V[ins.A&7] = [2]uint64{g[b], 0}
	case isa.MOVQV:
		g[a] = r.V[ins.B&7][0]
	}

	t.Regs.PC = next
	t.Retired++
	m.GlobalRetired++
	// OnBlock gets a one-element run built in the machine's scratch slot,
	// so the hooked path allocates nothing per instruction.
	if m.Hooks.OnBlock != nil {
		m.stepIns[0] = ins.Predecode(pc)
		m.Hooks.OnBlock(t, m.stepIns[:], 1)
	}
	if m.Hooks.OnIns != nil {
		m.Hooks.OnIns(t, rec)
	}
	// An exiting SYSCALL has retired; now it ends the thread or process.
	switch exit {
	case exitThreadAction:
		m.exitThread(t, status)
		return true, true
	case exitGroupAction:
		m.exitGroup(status)
		return true, true
	}
	if m.checkPerfOverflow(t) {
		return true, true
	}
	return yielded, true
}

// checkPerfOverflow fires any due perf counters (the graceful-exit
// mechanism). It returns true when an overflow exited the thread, or the
// whole process for an ExitGroup counter. The block executor bounds its
// batches so this check still fires at the exact overflow instruction (see
// blockBudget). Before the thread's due count it costs one compare.
func (m *Machine) checkPerfOverflow(t *Thread) bool {
	return t.Retired >= t.perfDue && m.firePerf(t)
}

// firePerf is checkPerfOverflow's look at every counter; it then moves the
// thread's due count to the next overflow.
func (m *Machine) firePerf(t *Thread) bool {
	defer t.setPerfDue()
	for _, p := range t.perf {
		if !p.Fired && t.Retired-p.base >= p.Period {
			p.Fired = true
			if p.ExitOnOverflow {
				if p.ExitGroup {
					m.exitGroup(0)
				} else {
					m.exitThread(t, 0)
				}
				return true
			}
			t.Regs.PC = p.Handler
		}
	}
	return false
}

// setPerfDue sets perfDue to the Retired count at which the first unfired
// counter overflows: now, for one already past its period, and never (the
// largest count) without one. The sum saturates, so a guest's huge period
// cannot wrap it below the overflow.
func (t *Thread) setPerfDue() {
	t.perfDue = math.MaxUint64
	for _, p := range t.perf {
		if p.Fired {
			continue
		}
		n := t.Retired - p.base
		if n >= p.Period {
			t.perfDue = t.Retired
			return
		}
		t.perfDue = min(t.perfDue, t.Retired+min(p.Period-n, math.MaxUint64-t.Retired))
	}
}

// Exit kinds returned by doSyscall.
const (
	noExitAction = iota
	exitThreadAction
	exitGroupAction
)

// doSyscall handles a SYSCALL instruction. exit reports whether the call
// ends the thread (exitThreadAction) or the process (exitGroupAction); the
// caller retires the instruction before applying the exit.
func (m *Machine) doSyscall(t *Thread) (yielded bool, exit, status int) {
	num := t.Regs.GPR[isa.R0]
	var res kernel.Result
	handled := false
	if m.Hooks.SyscallFilter != nil {
		res, handled = m.Hooks.SyscallFilter(t, num)
	}
	if !handled {
		as := m.Proc.AS
		as.SetKernelAccess(true)
		res = m.Kernel.Syscall(&kernel.Ctx{
			Proc: m.Proc, Regs: &t.Regs, TID: t.TID, Icount: m.GlobalRetired,
		})
		as.SetKernelAccess(false)
	}

	switch res.Action {
	case kernel.ActClone:
		child := m.AddThread(t.Regs)
		child.Regs.GPR[isa.R0] = 0
		child.Regs.GPR[isa.RSP] = res.CloneSP
		child.Regs.PC = res.CloneEntry
		res.Ret = uint64(child.TID)
	case kernel.ActExitThread:
		exit, status = exitThreadAction, res.ExitStatus
	case kernel.ActExitGroup:
		exit, status = exitGroupAction, res.ExitStatus
	case kernel.ActPerfOpen:
		t.perf = append(t.perf, &PerfCounter{
			Period:         res.Perf.Period,
			Handler:        res.Perf.Handler,
			ExitOnOverflow: res.Perf.Flags&kernel.PerfExitOnOverflow != 0,
			ExitGroup:      res.Perf.Flags&kernel.PerfExitGroupOnOverflow != 0,
			base:           t.Retired + 1, // counting starts after this call
		})
		t.perfDue = 0
	case kernel.ActYield:
		yielded = true
	}

	t.Regs.GPR[isa.R0] = res.Ret
	if m.Hooks.OnSyscall != nil {
		m.Hooks.OnSyscall(t, num, res)
	}
	return yielded, exit, status
}

// handleFault gives the fault hook a chance to fix the fault (page
// injection); otherwise the process dies. Returns yielded=true when the
// thread can no longer run.
func (m *Machine) handleFault(t *Thread, err error) bool {
	f, ok := err.(*mem.Fault)
	if !ok {
		f = &mem.Fault{}
	}
	if m.Hooks.OnFault != nil && m.Hooks.OnFault(t, f) {
		return false // retry the instruction
	}
	m.fatalFault(t, f)
	return true
}

// PerfCounters returns the counters armed on a thread.
func (t *Thread) PerfCounters() []*PerfCounter { return t.perf }

func subFlags(lhs, rhs uint64) uint64 {
	res := lhs - rhs
	var f uint64
	if res == 0 {
		f |= isa.FlagZ
	}
	if int64(res) < 0 {
		f |= isa.FlagS
	}
	if lhs < rhs {
		f |= isa.FlagC
	}
	if (lhs^rhs)&(lhs^res)>>63 != 0 {
		f |= isa.FlagO
	}
	return f
}

func logicFlags(res uint64) uint64 {
	var f uint64
	if res == 0 {
		f |= isa.FlagZ
	}
	if int64(res) < 0 {
		f |= isa.FlagS
	}
	return f
}

func condTaken(op isa.Op, flags uint64) bool {
	z := flags&isa.FlagZ != 0
	s := flags&isa.FlagS != 0
	c := flags&isa.FlagC != 0
	o := flags&isa.FlagO != 0
	switch op {
	case isa.JMP:
		return true
	case isa.JZ:
		return z
	case isa.JNZ:
		return !z
	case isa.JL:
		return s != o
	case isa.JLE:
		return z || s != o
	case isa.JG:
		return !z && s == o
	case isa.JGE:
		return s == o
	case isa.JB:
		return c
	case isa.JBE:
		return c || z
	case isa.JA:
		return !c && !z
	case isa.JAE:
		return !c
	case isa.JS:
		return s
	case isa.JNS:
		return !s
	}
	return false
}

func leBytes(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putBytes(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}
