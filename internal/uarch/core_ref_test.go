package uarch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elfie/internal/isa"
	"elfie/internal/vm"
)

// This file checks IntervalCore and OOOCore against reference copies of
// their Consume bodies as they were before the fetch, data-page and L1D
// memos, the direct cache pointers, the run loops and the operand table:
// every fetch and data access goes through the hierarchy by core index and
// through the TLB in full, and the OOO core reads its operands from the
// switch statements the table was built from. The memos and run loops are
// contractually cycle-identical, so every hit, miss and cycle must match,
// wherever the stream is cut into runs. The reference cores also read
// their input as the cores once did: one per-instruction record at a time,
// not a run of decoded instructions and their trace entries.

// refInst is one instruction as the reference cores read it.
type refInst struct {
	vm.InsRecord
	TID    int
	Class  isa.Class
	Kernel bool
}

// decoded returns the instruction as a Core reads it: decoded, with its
// trace entry.
func (d *refInst) decoded() (isa.DecInst, uint64) {
	dyn := d.MemAddr
	if isa.IsCondBranch(d.Ins.Op) && d.Taken {
		dyn = 1
	}
	return d.Ins.Predecode(d.PC), dyn
}

// refOpLatency is the execution latency rule the latency kinds of
// opTimings were built from.
func refOpLatency(cfg *CoreCfg, class isa.Class, op isa.Op) int {
	switch class {
	case isa.ClassMul:
		if op == isa.UDIV || op == isa.SDIV || op == isa.UREM {
			return cfg.DivLat
		}
		return cfg.MulLat
	case isa.ClassVec:
		return cfg.VecLat
	default:
		return cfg.ALULat
	}
}

// refSrcRegs returns the source registers of an instruction per the field
// conventions of the ISA: the rule opTimings' source operands were built
// from.
func refSrcRegs(ins *isa.DecInst) (srcs [3]isa.Reg, n int) {
	op := ins.Op
	add := func(r uint8) {
		srcs[n] = isa.Reg(r)
		n++
	}
	switch op {
	case isa.MOV, isa.NOT, isa.NEG, isa.JMPR, isa.CALLR:
		add(ins.B)
	case isa.ADD, isa.SUB, isa.MUL, isa.UDIV, isa.SDIV, isa.UREM,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR,
		isa.LEA1, isa.LEA8, isa.CMP, isa.TEST:
		add(ins.B)
		add(ins.C)
	case isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI, isa.CMPI, isa.TESTI,
		isa.LDB, isa.LDH, isa.LDW, isa.LDQ, isa.LDSB, isa.LDSH, isa.LDSW:
		add(ins.B)
	case isa.STB, isa.STH, isa.STW, isa.STQ, isa.XCHG, isa.XADD, isa.CMPXCHG:
		add(ins.A)
		add(ins.B)
	case isa.PUSH, isa.WRFSBASE, isa.WRGSBASE, isa.XSAVE, isa.XRSTOR, isa.RDTSC:
		add(ins.A)
		add(uint8(isa.RSP))
	case isa.POP, isa.POPF, isa.RET, isa.CALL, isa.PUSHF:
		add(uint8(isa.RSP))
	}
	return srcs, n
}

// refDstReg returns the destination register, or -1: the rule opTimings'
// destination operand was built from.
func refDstReg(ins *isa.DecInst) int {
	switch ins.Op {
	case isa.MOV, isa.MOVI, isa.LIMM, isa.ADD, isa.SUB, isa.MUL, isa.UDIV,
		isa.SDIV, isa.UREM, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.SAR, isa.NOT, isa.NEG, isa.ADDI, isa.MULI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.SARI, isa.LEA1, isa.LEA8,
		isa.LDB, isa.LDH, isa.LDW, isa.LDQ, isa.LDSB, isa.LDSH, isa.LDSW,
		isa.POP, isa.XCHG, isa.XADD, isa.RDTSC, isa.RDFSBASE, isa.RDGSBASE,
		isa.MOVQV, isa.CPUID:
		return int(ins.A)
	}
	return -1
}

// refSetsFlags and refRenamesRSP are the flag-writer and stack-engine
// rules opTimings was built from.
func refSetsFlags(op isa.Op) bool {
	switch op {
	case isa.CMP, isa.CMPI, isa.TEST, isa.TESTI, isa.CMPXCHG:
		return true
	case isa.POPF:
		return true
	}
	return false
}

func refRenamesRSP(op isa.Op) bool {
	switch op {
	case isa.PUSH, isa.PUSHF, isa.POP, isa.POPF, isa.CALL, isa.CALLR, isa.RET:
		return true
	}
	return false
}

// TestOperandTableMatchesSwitch checks every opcode's row of opTimings
// against the switch statements it replaced: the sources, the
// destination, the flag write, the rsp rename and the latency.
func TestOperandTableMatchesSwitch(t *testing.T) {
	cfg := CoreCfg{ALULat: 1, MulLat: 3, DivLat: 20, VecLat: 7}
	lats := latencies(&cfg)
	for i := 0; i < 256; i++ {
		op := isa.Op(i)
		in := isa.DecInst{Op: op, A: 1, B: 2, C: 3}
		tab := opTimings[op]
		var got []isa.Reg
		for _, f := range []struct {
			bit opRegs
			r   isa.Reg
		}{{srcA, 1}, {srcB, 2}, {srcC, 3}, {srcRSP, isa.RSP}} {
			if tab.regs&f.bit != 0 {
				got = append(got, f.r)
			}
		}
		srcs, n := refSrcRegs(&in)
		want := slices.Clone(srcs[:n])
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: sources %v, want %v", op.Name(), got, want)
		}
		if dst := refDstReg(&in); (tab.regs&dstA != 0) != (dst >= 0) {
			t.Errorf("%s: writes A %v, want destination %d", op.Name(), tab.regs&dstA != 0, dst)
		}
		if got, want := tab.regs&setsFlags != 0, refSetsFlags(op); got != want {
			t.Errorf("%s: sets flags %v, want %v", op.Name(), got, want)
		}
		if got, want := tab.regs&renamesRSP != 0, refRenamesRSP(op); got != want {
			t.Errorf("%s: renames rsp %v, want %v", op.Name(), got, want)
		}
		if got, want := lats[tab.lat], uint64(refOpLatency(&cfg, isa.OpClass(op), op)); got != want {
			t.Errorf("%s: latency %d, want %d", op.Name(), got, want)
		}
	}
}

// refIntervalCore is the reference interval core.
type refIntervalCore struct {
	Cfg        CoreCfg
	BP         *BranchPredictor
	DTLB       *TLB
	ITLB       *TLB
	Stats      CoreStats
	hier       *Hierarchy
	id         int
	dispatched uint64
}

func newRefIntervalCore(cfg CoreCfg, hier *Hierarchy, id int) *refIntervalCore {
	return &refIntervalCore{
		Cfg:  cfg,
		BP:   NewBranchPredictor(cfg.BranchPredictorBits),
		DTLB: NewTLB(cfg.TLBEntries, cfg.TLBWalk),
		ITLB: NewTLB(cfg.TLBEntries/2+1, cfg.TLBWalk),
		hier: hier,
		id:   id,
	}
}

func (c *refIntervalCore) Consume(d *refInst) {
	c.Stats.Instructions++
	if d.Kernel {
		c.Stats.KernelInstr++
	}
	c.dispatched++
	if c.dispatched >= uint64(c.Cfg.DispatchWidth) {
		c.dispatched = 0
		c.Stats.Cycles++
	}
	ilat := c.hier.AccessCode(c.id, d.PC) + c.ITLB.Access(d.PC)
	if ilat > c.hier.cfg.L1I.LatCycles {
		c.Stats.Cycles += uint64(ilat - c.hier.cfg.L1I.LatCycles)
	}
	if d.MemR || d.MemW {
		lat := c.hier.AccessData(c.id, d.MemAddr, d.MemW) + c.DTLB.Access(d.MemAddr)
		if lat > c.hier.cfg.L1D.LatCycles && d.MemR {
			stall := uint64(lat-c.hier.cfg.L1D.LatCycles) / 2
			c.Stats.Cycles += stall
			c.Stats.LoadStalls += stall
		}
	}
	if lat := refOpLatency(&c.Cfg, d.Class, d.Ins.Op); lat > c.Cfg.ALULat {
		c.Stats.Cycles += uint64(lat-c.Cfg.ALULat) / 2
	}
	if d.Branch && isa.IsCondBranch(d.Ins.Op) {
		if !c.BP.Predict(d.PC, d.Taken) {
			c.Stats.Cycles += uint64(c.Cfg.MispredictPenalty)
			c.Stats.BranchStalls += uint64(c.Cfg.MispredictPenalty)
		}
	}
}

func (c *refIntervalCore) Finish() *CoreStats { return &c.Stats }

// refOOOCore is the reference out-of-order core.
type refOOOCore struct {
	Cfg          CoreCfg
	BP           *BranchPredictor
	DTLB         *TLB
	ITLB         *TLB
	Stats        CoreStats
	hier         *Hierarchy
	id           int
	regReady     [isa.NumGPR]uint64
	flagReady    uint64
	rob          []uint64
	lsq          []uint64
	frontend     uint64
	clock        uint64
	retireBudget int
}

func newRefOOOCore(cfg CoreCfg, hier *Hierarchy, id int) *refOOOCore {
	return &refOOOCore{
		Cfg:  cfg,
		BP:   NewBranchPredictor(cfg.BranchPredictorBits),
		DTLB: NewTLB(cfg.TLBEntries, cfg.TLBWalk),
		ITLB: NewTLB(cfg.TLBEntries/2+1, cfg.TLBWalk),
		hier: hier,
		id:   id,
	}
}

func (c *refOOOCore) drainTo(occupancy int) {
	for len(c.rob) > occupancy {
		head := c.rob[0]
		if head > c.clock {
			c.clock = head
			c.retireBudget = c.Cfg.DispatchWidth
		}
		if c.retireBudget == 0 {
			c.clock++
			c.retireBudget = c.Cfg.DispatchWidth
		}
		c.rob = c.rob[1:]
		c.retireBudget--
	}
}

func (c *refOOOCore) Consume(d *refInst) {
	c.Stats.Instructions++
	if d.Kernel {
		c.Stats.KernelInstr++
	}
	c.drainTo(c.Cfg.ROBSize - 1)
	if d.MemR || d.MemW {
		live := c.lsq[:0]
		for _, done := range c.lsq {
			if done > c.clock {
				live = append(live, done)
			}
		}
		c.lsq = live
		if len(c.lsq) >= c.Cfg.LSQSize {
			oldest := c.lsq[0]
			if oldest > c.clock {
				c.clock = oldest
			}
			c.lsq = c.lsq[1:]
		}
	}
	ilat := c.hier.AccessCode(c.id, d.PC) + c.ITLB.Access(d.PC)
	issue := c.clock
	if c.frontend > issue {
		issue = c.frontend
	}
	if ilat > c.hier.cfg.L1I.LatCycles {
		c.frontend = issue + uint64(ilat-c.hier.cfg.L1I.LatCycles)
		issue = c.frontend
	}
	in := d.Ins.Predecode(d.PC)
	srcs, n := refSrcRegs(&in)
	for i := 0; i < n; i++ {
		if r := c.regReady[srcs[i]]; r > issue {
			issue = r
		}
	}
	if isa.IsCondBranch(d.Ins.Op) && c.flagReady > issue {
		issue = c.flagReady
	}
	lat := uint64(refOpLatency(&c.Cfg, d.Class, d.Ins.Op))
	if d.MemR || d.MemW {
		mlat := c.hier.AccessData(c.id, d.MemAddr, d.MemW) + c.DTLB.Access(d.MemAddr)
		if d.MemR {
			lat += uint64(mlat)
		} else {
			lat += uint64(c.hier.cfg.L1D.LatCycles)
		}
	}
	done := issue + lat
	if dst := refDstReg(&in); dst >= 0 {
		c.regReady[dst] = done
	}
	switch d.Ins.Op {
	case isa.CMP, isa.CMPI, isa.TEST, isa.TESTI, isa.CMPXCHG:
		c.flagReady = done
	case isa.POPF:
		c.flagReady = done
	}
	switch d.Ins.Op {
	case isa.PUSH, isa.PUSHF, isa.POP, isa.POPF, isa.CALL, isa.CALLR, isa.RET:
		c.regReady[isa.RSP] = issue + 1
	}
	if d.Branch && isa.IsCondBranch(d.Ins.Op) {
		if !c.BP.Predict(d.PC, d.Taken) {
			refill := done + uint64(c.Cfg.MispredictPenalty)
			if refill > c.frontend {
				c.frontend = refill
			}
			c.Stats.BranchStalls += uint64(c.Cfg.MispredictPenalty)
		}
	}
	c.rob = append(c.rob, done)
	if d.MemR || d.MemW {
		c.lsq = append(c.lsq, done)
	}
	c.retireBudget--
	if c.retireBudget <= 0 {
		c.clock++
		c.retireBudget = c.Cfg.DispatchWidth
	}
	if c.Stats.Instructions%1024 == 0 {
		c.drainTo(c.Cfg.ROBSize / 2)
	}
	c.Stats.Cycles = c.currentCycles()
}

func (c *refOOOCore) currentCycles() uint64 {
	cy := c.clock
	if n := len(c.rob); n > 0 && c.rob[n-1] > cy {
		cy = c.rob[n-1]
	}
	return cy
}

func (c *refOOOCore) Finish() *CoreStats {
	c.drainTo(0)
	if c.clock > c.Stats.Cycles {
		c.Stats.Cycles = c.clock
	}
	return &c.Stats
}

// oooState is an OOO core's pipeline state beside its queues: clocks and
// register and flag readiness.
type oooState struct {
	Clock, Frontend uint64
	RetireBudget    int
	FlagReady       uint64
	RegReady        [isa.NumGPR]uint64
}

// coreCounters is every count a core and its slot of the hierarchy keep.
type coreCounters struct {
	Stats                        CoreStats
	ITLBAcc, ITLBMiss            uint64
	DTLBAcc, DTLBMiss            uint64
	L1IAcc, L1IMiss              uint64
	L1DAcc, L1DMiss              uint64
	L2Acc, L2Miss                uint64
	BPLookups, BPMispredicts     uint64
	Invalidations, PrefetchIssue uint64
	L3Acc, L3Miss                uint64
	Footprint                    int
	BPHistory                    uint64
	OOO                          oooState
}

func countersOf(st *CoreStats, itlb, dtlb *TLB, bp *BranchPredictor, h *Hierarchy, id int) coreCounters {
	return coreCounters{
		Stats:   *st,
		ITLBAcc: itlb.Accesses, ITLBMiss: itlb.Misses,
		DTLBAcc: dtlb.Accesses, DTLBMiss: dtlb.Misses,
		L1IAcc: h.l1i[id].Accesses, L1IMiss: h.l1i[id].Misses,
		L1DAcc: h.l1d[id].Accesses, L1DMiss: h.l1d[id].Misses,
		L2Acc: h.l2[id].Accesses, L2Miss: h.l2[id].Misses,
		BPLookups: bp.Lookups, BPMispredicts: bp.Mispredict,
		Invalidations: h.Invalidations, PrefetchIssue: h.PrefetchIssued,
		L3Acc: h.L3.Accesses, L3Miss: h.L3.Misses,
		Footprint: h.FootprintLines(),
		BPHistory: bp.history,
	}
}

// sameReplacementState reports whether two cores' TLBs, private caches and
// predictor tables hold the same entries in the same recency order.
func sameReplacementState(itlb, dtlb, ritlb, rdtlb *TLB, bp, rbp *BranchPredictor, h, rh *Hierarchy, id int) bool {
	return slices.Equal(itlb.entries, ritlb.entries) && slices.Equal(dtlb.entries, rdtlb.entries) &&
		slices.Equal(h.l1i[id].tags, rh.l1i[id].tags) && slices.Equal(h.l1d[id].tags, rh.l1d[id].tags) &&
		slices.Equal(h.l2[id].tags, rh.l2[id].tags) && slices.Equal(bp.table, rbp.table)
}

// memoKeys are a port's memo keys: the fetch memo's and the data page's.
type memoKeys struct{ fetch, page uint64 }

// superblockLen is the longest run the VM retires at once: its
// maxSuperLen.
const superblockLen = 512

// runLength draws the length of the next run a test feeds a core: one in
// four runs is a single instruction, the rest from 1 up to superblockLen.
func runLength(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return 1
	}
	return 1 + rng.Intn(superblockLen)
}

// streamOps are the opcodes the generated streams draw from: ALU, the
// long-latency multiply and divide ops, vector ops, loads and stores,
// read-modify-write atomics, stack ops, flag producers and conditional
// and unconditional branches.
var streamOps = []isa.Op{
	isa.ADD, isa.ADDI, isa.MOV, isa.MOVI, isa.XOR, isa.SHLI, isa.LEA8,
	isa.MUL, isa.MULI, isa.UDIV, isa.SDIV, isa.UREM, isa.VADDQ, isa.MOVQV,
	isa.LDQ, isa.LDQ, isa.LDW, isa.LDSB, isa.VLD, isa.STQ, isa.STB, isa.VST,
	isa.XCHG, isa.XADD, isa.CMPXCHG,
	isa.PUSH, isa.POP, isa.PUSHF, isa.POPF, isa.CALL, isa.RET,
	isa.CMP, isa.CMPI, isa.TEST, isa.TESTI,
	isa.JZ, isa.JNZ, isa.JL, isa.JNZ, isa.JMP, isa.JMPR,
}

// dynStream generates a deterministic instruction stream over threads
// threads: per-thread code walks with near, far and cross-page branches,
// bursts of kernel-flagged records on kernel text, and data accesses to a
// region every thread shares (so writes invalidate other cores' copies),
// to per-thread stacks, to a streaming buffer and to random pages.
type dynStream struct {
	rng     *rand.Rand
	threads int
	tid     int
	pcs     []uint64
	stream  []uint64
	kernel  int // kernel records left in the current burst
	kpc     uint64
	d       refInst
}

func newDynStream(seed int64, threads int) *dynStream {
	s := &dynStream{rng: rand.New(rand.NewSource(seed)), threads: threads}
	for t := 0; t < threads; t++ {
		s.pcs = append(s.pcs, 0x400000+uint64(t)*0x3000+uint64(s.rng.Intn(64))*isa.InstLen)
		s.stream = append(s.stream, 0x20000000+uint64(t)<<24)
	}
	return s
}

func (s *dynStream) dataAddr(tid int) uint64 {
	r := s.rng
	switch k := r.Intn(10); {
	case k < 4: // shared lines
		return 0x10000000 + uint64(r.Intn(96))*8
	case k < 6: // this thread's stack
		return 0x7ff00000 - uint64(tid)<<16 - uint64(r.Intn(512))*8
	case k < 8: // streaming: a new line, now and then a new page
		s.stream[tid] += uint64(8 + 8*r.Intn(9))
		return s.stream[tid]
	default: // anywhere in 8 MiB
		return 0x30000000 + uint64(r.Intn(1<<20))*8
	}
}

// next fills and returns the stream's next record; it stays valid until
// the following call.
func (s *dynStream) next() *refInst {
	r := s.rng
	if s.kernel == 0 && r.Intn(40) == 0 {
		s.tid = r.Intn(s.threads)
	}
	if s.kernel == 0 && r.Intn(3000) == 0 {
		s.kernel = 50 + r.Intn(250)
		s.kpc = 0xffffffff81000000 + uint64(r.Intn(16))<<12
	}
	pc := &s.pcs[s.tid]
	if s.kernel > 0 {
		s.kernel--
		pc = &s.kpc
	}
	op := streamOps[r.Intn(len(streamOps))]
	s.d.InsRecord = vm.InsRecord{
		PC:  *pc,
		Ins: isa.Inst{Op: op, A: uint8(r.Intn(isa.NumGPR)), B: uint8(r.Intn(isa.NumGPR)), C: uint8(r.Intn(isa.NumGPR))},
	}
	s.d.TID, s.d.Class, s.d.Kernel = s.tid, isa.OpClass(op), s.kernel > 0
	if isa.ReadsMem(op) || isa.WritesMem(op) {
		s.d.InsRecord.MemR, s.d.InsRecord.MemW = isa.ReadsMem(op), isa.WritesMem(op)
		s.d.InsRecord.MemAddr, s.d.InsRecord.MemSize = s.dataAddr(s.tid), 8
	}
	*pc += isa.InstLen
	if isa.IsBranch(op) {
		s.d.InsRecord.Branch = true
		s.d.InsRecord.Taken = !isa.IsCondBranch(op) || r.Intn(3) > 0
		if s.d.InsRecord.Taken {
			switch k := r.Intn(10); {
			case k < 7: // a near branch, often in the same line
				s.d.InsRecord.Target = *pc - 256 + uint64(r.Intn(64))*isa.InstLen
			case k < 9: // elsewhere in this code region
				s.d.InsRecord.Target = *pc&^0xffff + uint64(r.Intn(8192))*isa.InstLen
			default: // another code region, another ITLB page
				s.d.InsRecord.Target = 0x400000 + uint64(r.Intn(1<<16))*isa.InstLen
			}
			*pc = s.d.InsRecord.Target
		}
	}
	return &s.d
}

// TestCoresMatchReference feeds generated streams through both timing
// cores, in runs of seeded random length (see runLength), and through
// their reference copies one instruction at a time. After every run it
// requires every CoreStats field, every cache and TLB count, the
// coherence and prefetch counts, the footprint, the predictor's counts and
// history, the recency order of the core's TLBs, private caches and
// predictor table and, for the OOO core, the whole pipeline state (clocks,
// readiness, ROB and LSQ contents) to match, and the memo keys to be those
// of the core's last fetch and last data access: on 1, 3 and 8 cores, with
// more threads than cores, and with 32-, 64- and 128-byte L1I lines.
func TestCoresMatchReference(t *testing.T) {
	n := 40_000
	if testing.Short() {
		n = 10_000
	}
	type refCore interface {
		Consume(*refInst)
		Finish() *CoreStats
	}
	for _, kind := range []string{"interval", "ooo"} {
		for _, cores := range []int{1, 3, 8} {
			for _, line := range []int{32, 64, 128} {
				name := fmt.Sprintf("%s/%dcores/%dB", kind, cores, line)
				cfg, hcfg := HardwareCore(), SmallHierarchy(cores)
				if kind == "ooo" {
					cfg, hcfg = SkylakeCore(), DesktopHierarchy(cores)
				}
				hcfg.L1I.LineBytes = line
				h, rh := NewHierarchy(hcfg, cores), NewHierarchy(hcfg, cores)
				fetchMask := newPort(&cfg, h, 0).fetchMask
				var got []Core
				var want []refCore
				// memo[i] is what core i's fetch and data-page memos must
				// hold: the key of its last fetch and the page of its last
				// data access.
				memo := make([]memoKeys, cores)
				for i := range memo {
					memo[i] = memoKeys{^uint64(0), ^uint64(0)}
				}
				// diff describes how core i differs from its reference, or
				// is empty when they match.
				diff := func(i int) string {
					var g, w coreCounters
					var gm memoKeys
					queues, lru := true, true
					switch c := got[i].(type) {
					case *IntervalCore:
						r := want[i].(*refIntervalCore)
						g, w = countersOf(&c.Stats, c.ITLB, c.DTLB, c.BP, h, i), countersOf(&r.Stats, r.ITLB, r.DTLB, r.BP, rh, i)
						lru = sameReplacementState(c.ITLB, c.DTLB, r.ITLB, r.DTLB, c.BP, r.BP, h, rh, i)
						gm = memoKeys{c.fetchKey, c.dataPage}
					case *OOOCore:
						r := want[i].(*refOOOCore)
						g, w = countersOf(&c.Stats, c.ITLB, c.DTLB, c.BP, h, i), countersOf(&r.Stats, r.ITLB, r.DTLB, r.BP, rh, i)
						lru = sameReplacementState(c.ITLB, c.DTLB, r.ITLB, r.DTLB, c.BP, r.BP, h, rh, i)
						gm = memoKeys{c.fetchKey, c.dataPage}
						g.OOO = oooState{c.clock, c.frontend, c.retireBudget, c.flagReady, c.regReady}
						w.OOO = oooState{r.clock, r.frontend, r.retireBudget, r.flagReady, r.regReady}
						if !slices.Equal(c.rob, r.rob) || !slices.Equal(c.lsq, r.lsq) {
							queues = false
						}
					}
					if g == w && queues && lru && gm == memo[i] {
						return ""
					}
					return fmt.Sprintf("\n got %+v\nwant %+v\nqueues match: %v, replacement state matches: %v, memo keys %#x, want %#x",
						g, w, queues, lru, gm, memo[i])
				}
				for i := 0; i < cores; i++ {
					if kind == "ooo" {
						got = append(got, NewOOOCore(cfg, h, i))
						want = append(want, newRefOOOCore(cfg, rh, i))
					} else {
						got = append(got, NewIntervalCore(cfg, h, i))
						want = append(want, newRefIntervalCore(cfg, rh, i))
					}
				}
				s := newDynStream(int64(cores*1000+line), cores+2)
				rng := rand.New(rand.NewSource(int64(cores*1000 + line + 7)))
				// The pending run: the records of consecutive instructions
				// for core runCore, up to runLen of them.
				var run []refInst
				var runIns []isa.DecInst
				var runDyn []uint64
				runCore, runLen, runStart := -1, 0, 0
				feed := func(next int) {
					if len(run) == 0 {
						return
					}
					i := runCore
					got[i].Consume(runIns, runDyn)
					for k := range run {
						d := &run[k]
						want[i].Consume(d)
						memo[i].fetch = d.PC & fetchMask
						if d.MemR || d.MemW {
							memo[i].page = d.MemAddr >> pageShift
						}
					}
					if msg := diff(i); msg != "" {
						d := &run[0]
						t.Fatalf("%s: run of %d at instruction %d (tid %d, pc %#x, %s) differs on core %d:%s",
							name, len(run), runStart, d.TID, d.PC, d.Ins.Op.Name(), i, msg)
					}
					run, runIns, runDyn = run[:0], runIns[:0], runDyn[:0]
					runStart = next
				}
				kernel := 0
				for k := 0; k < n; k++ {
					d := s.next()
					i := d.TID % cores
					if i != runCore || len(run) == runLen {
						feed(k)
						runCore, runLen = i, runLength(rng)
					}
					if d.Kernel {
						kernel++
						switch c := got[i].(type) {
						case *IntervalCore:
							c.Stats.KernelInstr++
						case *OOOCore:
							c.Stats.KernelInstr++
						}
					}
					in, dyn := d.decoded()
					run, runIns, runDyn = append(run, *d), append(runIns, in), append(runDyn, dyn)
				}
				feed(n)
				for i := 0; i < cores; i++ {
					got[i].Finish()
					want[i].Finish()
					if msg := diff(i); msg != "" {
						t.Fatalf("%s: core %d differs after Finish:%s", name, i, msg)
					}
				}
				// The stream must reach what the memos could get wrong.
				if kernel == 0 || cores > 1 && rh.Invalidations == 0 {
					t.Fatalf("%s: stream too tame: %d kernel records, %d invalidations", name, kernel, rh.Invalidations)
				}
			}
		}
	}
}

// BenchmarkCoreConsume times each core type over a cache-resident stream:
// 8192 instructions from the dynStream generator on one core, fed once per
// iteration through the Core interface, as the driver feeds a core. The
// runs case cuts the stream into runs by runLength, as a block-fed driver
// does; the len1 case feeds it one instruction at a time, as a driver with
// an After function does. It reports the time per instruction.
func BenchmarkCoreConsume(b *testing.B) {
	const n = 1 << 13
	s, rng := newDynStream(1, 1), rand.New(rand.NewSource(2))
	ins, dyn := make([]isa.DecInst, n), make([]uint64, n)
	var runs, singles []int
	for k := 0; k < n; k++ {
		ins[k], dyn[k] = s.next().decoded()
		if len(runs) == 0 || k == runs[len(runs)-1] {
			runs = append(runs, min(k+runLength(rng), n))
		}
		singles = append(singles, k+1)
	}
	for _, kind := range []string{"interval", "ooo"} {
		for _, cut := range []struct {
			name string
			ends []int
		}{{"runs", runs}, {"len1", singles}} {
			b.Run(kind+"/"+cut.name, func(b *testing.B) {
				var c Core = NewIntervalCore(HardwareCore(), NewHierarchy(SmallHierarchy(1), 1), 0)
				if kind == "ooo" {
					c = NewOOOCore(SkylakeCore(), NewHierarchy(DesktopHierarchy(1), 1), 0)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := 0
					for _, end := range cut.ends {
						c.Consume(ins[start:end], dyn[start:end])
						start = end
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/instr")
			})
		}
	}
}
