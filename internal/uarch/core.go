package uarch

import "elfie/internal/isa"

// CoreCfg configures a core timing model.
type CoreCfg struct {
	Name string
	// DispatchWidth is the sustained instructions-per-cycle ceiling.
	DispatchWidth int
	// ROB/IQ/LSQ sizes (detailed model only).
	ROBSize int
	IQSize  int
	LSQSize int
	// PhysRegs bounds in-flight register writers (detailed model only).
	PhysRegs int
	// MispredictPenalty is the pipeline refill cost in cycles.
	MispredictPenalty int
	// Latencies.
	ALULat int
	MulLat int
	DivLat int
	VecLat int
	// BranchPredictorBits sizes the gshare table.
	BranchPredictorBits uint
	// TLB configuration.
	TLBEntries int
	TLBWalk    int
}

// CoreStats accumulates per-core timing results.
type CoreStats struct {
	Instructions uint64
	KernelInstr  uint64
	Cycles       uint64
	LoadStalls   uint64
	BranchStalls uint64
}

// CPI returns cycles per instruction.
func (s *CoreStats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IPC returns instructions per cycle.
func (s *CoreStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// opTiming is what a core needs to know of an opcode beyond its decoded
// form: its class, whether it reads or writes data memory (the trace entry
// is then its address), and whether it is a conditional branch (the trace
// entry is then its outcome).
type opTiming struct {
	class           isa.Class
	mem, memR, memW bool
	cond            bool
}

// opTimings is the static per-opcode table the cores time from.
var opTimings = func() (tab [256]opTiming) {
	for i := range tab {
		op := isa.Op(i)
		r, w := isa.ReadsMem(op), isa.WritesMem(op)
		tab[i] = opTiming{class: isa.OpClass(op), mem: r || w, memR: r, memW: w, cond: isa.IsCondBranch(op)}
	}
	return tab
}()

func opLatency(cfg *CoreCfg, class isa.Class, op isa.Op) int {
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

// port is one core's private path into the memory system: its TLBs, its
// own L1I, L1D and L2 by pointer, and the memos of two fast paths that
// leave every hit, miss and latency as a full access would.
//
// The fetch memo relies on the L1I and the ITLB being touched only by this
// core's fetches, and on an access leaving its line (or page) MRU. A fetch
// in the previous fetch's L1I line and page is then an MRU hit in both, and
// only counts an access in each. The data-page memo relies on the DTLB
// being touched only by this core's data accesses: one in the previous
// one's page is a DTLB MRU hit. The L1D is not memoised, because another
// core's write can invalidate a line between two of this core's accesses.
type port struct {
	ITLB, DTLB *TLB

	hier         *Hierarchy
	id           int
	l1i, l1d, l2 *Cache
	l1iLat       int
	l1dLat       int
	// fetchMask keys the fetch memo on the finer of the L1I line and the
	// TLB page, so one key never spans two lines or two pages.
	fetchMask uint64
	fetchKey  uint64 // pc & fetchMask of the last fetch
	dataPage  uint64 // TLB page of the last data access
}

func newPort(cfg *CoreCfg, hier *Hierarchy, id int) port {
	return port{
		ITLB:      NewTLB(cfg.TLBEntries/2+1, cfg.TLBWalk),
		DTLB:      NewTLB(cfg.TLBEntries, cfg.TLBWalk),
		hier:      hier,
		id:        id,
		l1i:       hier.l1i[id],
		l1d:       hier.l1d[id],
		l2:        hier.l2[id],
		l1iLat:    hier.cfg.L1I.LatCycles,
		l1dLat:    hier.cfg.L1D.LatCycles,
		fetchMask: ^(uint64(1)<<min(hier.l1i[id].shift, pageShift) - 1),
		// Both keys clear or drop at least one address bit, so neither can
		// be all ones: the memos start empty.
		fetchKey: ^uint64(0),
		dataPage: ^uint64(0),
	}
}

// fetchStall times an instruction fetch at pc and returns the cycles it
// takes beyond an L1I hit, the ITLB walk included. It is kept small enough
// to inline into Consume (the named result is part of that).
func (p *port) fetchStall(pc uint64) (stall uint64) {
	if pc&p.fetchMask != p.fetchKey {
		return p.fetchNewLine(pc)
	}
	p.l1i.Accesses++
	p.ITLB.Accesses++
	return
}

// fetchNewLine is fetchStall's full access, which moves the memo to pc.
func (p *port) fetchNewLine(pc uint64) uint64 {
	p.fetchKey = pc & p.fetchMask
	if lat := p.hier.accessCode(p.l1i, p.l2, pc) + p.ITLB.Access(pc); lat > p.l1iLat {
		return uint64(lat - p.l1iLat)
	}
	return 0
}

// dataLat times a data access and returns its latency, the DTLB walk
// included.
func (p *port) dataLat(addr uint64, write bool) int {
	lat := p.hier.accessData(p.id, p.l1d, p.l2, addr, write)
	if addr>>pageShift != p.dataPage {
		p.dataPage = addr >> pageShift
		return lat + p.DTLB.Access(addr)
	}
	p.DTLB.Accesses++
	return lat
}

// IntervalCore is a Sniper-style mechanistic interval model: the core
// sustains DispatchWidth instructions per cycle until a miss event (branch
// mispredict, cache/TLB miss) inserts a penalty interval.
type IntervalCore struct {
	Cfg   CoreCfg
	BP    *BranchPredictor
	Stats CoreStats
	port

	dispatched uint64 // fractional-dispatch accumulator (instructions)
}

// NewIntervalCore builds an interval-model core bound to a hierarchy slot.
func NewIntervalCore(cfg CoreCfg, hier *Hierarchy, id int) *IntervalCore {
	return &IntervalCore{
		Cfg:  cfg,
		BP:   NewBranchPredictor(cfg.BranchPredictorBits),
		port: newPort(&cfg, hier, id),
	}
}

// Consume implements Core.
func (c *IntervalCore) Consume(in *isa.DecInst, dyn uint64) {
	c.Stats.Instructions++
	op := &opTimings[in.Op]
	pc := in.PC()
	// Base dispatch cost.
	c.dispatched++
	if c.dispatched >= uint64(c.Cfg.DispatchWidth) {
		c.dispatched = 0
		c.Stats.Cycles++
	}
	// Instruction fetch: penalize only on I-side misses past L1.
	c.Stats.Cycles += c.fetchStall(pc)
	// Data access: latency beyond L1 stalls the interval (no overlap in
	// this abstraction — Sniper's ECM would overlap; we fold MLP into a
	// 50% discount).
	if op.mem {
		lat := c.dataLat(dyn, op.memW)
		if lat > c.l1dLat && op.memR {
			stall := uint64(lat-c.l1dLat) / 2
			c.Stats.Cycles += stall
			c.Stats.LoadStalls += stall
		}
	}
	// Long-latency ops partially serialize.
	if lat := opLatency(&c.Cfg, op.class, in.Op); lat > c.Cfg.ALULat {
		c.Stats.Cycles += uint64(lat-c.Cfg.ALULat) / 2
	}
	// Branch resolution.
	if op.cond {
		if !c.BP.Predict(pc, dyn != 0) {
			c.Stats.Cycles += uint64(c.Cfg.MispredictPenalty)
			c.Stats.BranchStalls += uint64(c.Cfg.MispredictPenalty)
		}
	}
}

// Finish returns the core's stats; an interval core has no pipeline to
// drain.
func (c *IntervalCore) Finish() *CoreStats { return &c.Stats }

// OOOCore is the detailed out-of-order scoreboard model used by the
// CoreSim- and gem5-style simulators: register dependences through a rename
// table, bounded ROB/IQ/LSQ occupancy, in-order retirement at
// DispatchWidth per cycle.
type OOOCore struct {
	Cfg   CoreCfg
	BP    *BranchPredictor
	Stats CoreStats
	port

	// regReady[r] is the cycle register r's newest value is available.
	regReady  [isa.NumGPR]uint64
	flagReady uint64
	// rob holds completion cycles of in-flight instructions (FIFO).
	rob []uint64
	// lsq holds completion cycles of in-flight memory ops.
	lsq []uint64
	// robBuf and lsqBuf are the arrays rob and lsq are windows of (see
	// push).
	robBuf, lsqBuf []uint64
	// frontend is the cycle the fetch stage is ready to deliver.
	frontend     uint64
	clock        uint64
	retireBudget int
}

// NewOOOCore builds a detailed core bound to a hierarchy slot.
func NewOOOCore(cfg CoreCfg, hier *Hierarchy, id int) *OOOCore {
	c := &OOOCore{
		Cfg:  cfg,
		BP:   NewBranchPredictor(cfg.BranchPredictorBits),
		port: newPort(&cfg, hier, id),
		// Twice each queue's bound, so a slide moves at most half the
		// array and comes at most once per bound's worth of pushes.
		robBuf: make([]uint64, 2*(cfg.ROBSize+1)),
		lsqBuf: make([]uint64, 2*(cfg.LSQSize+1)),
	}
	c.rob, c.lsq = c.robBuf[:0], c.lsqBuf[:0]
	return c
}

// push appends v to the FIFO q, a window of buf that pops advance. At
// buf's end the window slides back to buf's front instead of growing into
// a new array, so a queue that stays shorter than buf never reallocates.
func push(q, buf []uint64, v uint64) []uint64 {
	if len(q) == cap(q) && len(q) < len(buf) {
		q = buf[:copy(buf, q)]
	}
	return append(q, v)
}

// drainTo advances the clock until the ROB has room, retiring completed
// instructions in order at DispatchWidth per cycle.
func (c *OOOCore) drainTo(occupancy int) {
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

// srcRegs returns the source registers of an instruction per the field
// conventions of the ISA.
func srcRegs(ins *isa.DecInst) (srcs [3]isa.Reg, n int) {
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

// dstReg returns the destination register, or -1.
func dstReg(ins *isa.DecInst) int {
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

// Consume implements Core.
func (c *OOOCore) Consume(in *isa.DecInst, dyn uint64) {
	c.Stats.Instructions++
	op := &opTimings[in.Op]
	pc := in.PC()

	// Structural: ROB and LSQ space.
	c.drainTo(c.Cfg.ROBSize - 1)
	if op.mem {
		// Retire LSQ entries that completed.
		live := c.lsq[:0]
		for _, done := range c.lsq {
			if done > c.clock {
				live = append(live, done)
			}
		}
		c.lsq = live
		if len(c.lsq) >= c.Cfg.LSQSize {
			// Oldest memory op gates progress.
			oldest := c.lsq[0]
			if oldest > c.clock {
				c.clock = oldest
			}
			c.lsq = c.lsq[1:]
		}
	}

	// Fetch: the front end delivers DispatchWidth per cycle; I-cache misses
	// push it out.
	issue := max(c.clock, c.frontend)
	if stall := c.fetchStall(pc); stall > 0 {
		c.frontend = issue + stall
		issue = c.frontend
	}

	// Dependences.
	srcs, n := srcRegs(in)
	for i := 0; i < n; i++ {
		if r := c.regReady[srcs[i]]; r > issue {
			issue = r
		}
	}
	if op.cond && c.flagReady > issue {
		issue = c.flagReady
	}

	// Execution latency.
	lat := uint64(opLatency(&c.Cfg, op.class, in.Op))
	if op.mem {
		mlat := c.dataLat(dyn, op.memW)
		if op.memR {
			lat += uint64(mlat)
		} else {
			lat += uint64(c.l1dLat) // stores complete at L1
		}
	}
	done := issue + lat

	// Writeback.
	if dst := dstReg(in); dst >= 0 {
		c.regReady[dst] = done
	}
	switch in.Op {
	case isa.CMP, isa.CMPI, isa.TEST, isa.TESTI, isa.CMPXCHG:
		c.flagReady = done
	case isa.POPF:
		c.flagReady = done
	}
	switch in.Op {
	case isa.PUSH, isa.PUSHF, isa.POP, isa.POPF, isa.CALL, isa.CALLR, isa.RET:
		c.regReady[isa.RSP] = issue + 1 // stack engine renames rsp cheaply
	}

	// Branch resolution: a mispredict stalls the front end until resolve +
	// refill.
	if op.cond {
		if !c.BP.Predict(pc, dyn != 0) {
			refill := done + uint64(c.Cfg.MispredictPenalty)
			if refill > c.frontend {
				c.frontend = refill
			}
			c.Stats.BranchStalls += uint64(c.Cfg.MispredictPenalty)
		}
	}

	c.rob = push(c.rob, c.robBuf, done)
	if op.mem {
		c.lsq = push(c.lsq, c.lsqBuf, done)
	}

	// Dispatch cost: at most DispatchWidth per cycle.
	c.retireBudget--
	if c.retireBudget <= 0 {
		c.clock++
		c.retireBudget = c.Cfg.DispatchWidth
	}
	if c.Stats.Instructions%1024 == 0 {
		// Periodically settle the clock against the ROB head so Cycles
		// tracks retirement, not just dispatch.
		c.drainTo(c.Cfg.ROBSize / 2)
	}
	c.Stats.Cycles = c.currentCycles()
}

// currentCycles reports the clock including outstanding completion.
func (c *OOOCore) currentCycles() uint64 {
	cy := c.clock
	if n := len(c.rob); n > 0 && c.rob[n-1] > cy {
		cy = c.rob[n-1]
	}
	return cy
}

// Finish drains the pipeline and returns final stats.
func (c *OOOCore) Finish() *CoreStats {
	c.drainTo(0)
	if c.clock > c.Stats.Cycles {
		c.Stats.Cycles = c.clock
	}
	return &c.Stats
}
