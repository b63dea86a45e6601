package uarch

import "elfie/internal/isa"

// CoreCfg configures a core timing model.
type CoreCfg struct {
	Name string
	// DispatchWidth is the sustained instructions-per-cycle ceiling.
	DispatchWidth int
	// ROB and LSQ sizes (detailed model only).
	ROBSize int
	LSQSize int
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
// form: its latency kind, whether it reads or writes data memory (the
// trace entry is then its address), whether it is a conditional branch
// (the trace entry is then its outcome), and the register operands the
// OOO core tracks.
type opTiming struct {
	lat             latKind
	mem, memR, memW bool
	cond            bool
	regs            opRegs
}

// latKind selects which of a CoreCfg's latencies an opcode executes in.
type latKind uint8

const (
	latALU latKind = iota
	latMul
	latDiv
	latVec
)

// latencies returns cfg's execution latencies indexed by latKind.
func latencies(cfg *CoreCfg) [4]uint64 {
	return [4]uint64{latALU: uint64(cfg.ALULat), latMul: uint64(cfg.MulLat),
		latDiv: uint64(cfg.DivLat), latVec: uint64(cfg.VecLat)}
}

// opRegs is the set of register operands the OOO core tracks for an
// opcode: which of its fields (and the stack pointer) it reads, whether it
// writes field A, whether it sets the flags, and whether the stack engine
// renames rsp for it.
type opRegs uint8

const (
	srcA opRegs = 1 << iota
	srcB
	srcC
	srcRSP
	dstA
	setsFlags
	renamesRSP
)

// operandRules lists, per set of operands, the opcodes that have them; an
// opcode's opRegs is the union of the sets it is listed under.
var operandRules = []struct {
	regs opRegs
	ops  []isa.Op
}{
	{srcB, []isa.Op{isa.MOV, isa.NOT, isa.NEG, isa.JMPR, isa.CALLR}},
	{srcB | srcC, []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.UDIV, isa.SDIV, isa.UREM,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR,
		isa.LEA1, isa.LEA8, isa.CMP, isa.TEST}},
	{srcB, []isa.Op{isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI, isa.CMPI, isa.TESTI,
		isa.LDB, isa.LDH, isa.LDW, isa.LDQ, isa.LDSB, isa.LDSH, isa.LDSW}},
	{srcA | srcB, []isa.Op{isa.STB, isa.STH, isa.STW, isa.STQ, isa.XCHG, isa.XADD, isa.CMPXCHG}},
	{srcA | srcRSP, []isa.Op{isa.PUSH, isa.WRFSBASE, isa.WRGSBASE, isa.XSAVE, isa.XRSTOR, isa.RDTSC}},
	{srcRSP, []isa.Op{isa.POP, isa.POPF, isa.RET, isa.CALL, isa.PUSHF}},
	{dstA, []isa.Op{isa.MOV, isa.MOVI, isa.LIMM, isa.ADD, isa.SUB, isa.MUL, isa.UDIV,
		isa.SDIV, isa.UREM, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.SAR, isa.NOT, isa.NEG, isa.ADDI, isa.MULI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.SARI, isa.LEA1, isa.LEA8,
		isa.LDB, isa.LDH, isa.LDW, isa.LDQ, isa.LDSB, isa.LDSH, isa.LDSW,
		isa.POP, isa.XCHG, isa.XADD, isa.RDTSC, isa.RDFSBASE, isa.RDGSBASE,
		isa.MOVQV, isa.CPUID}},
	{setsFlags, []isa.Op{isa.CMP, isa.CMPI, isa.TEST, isa.TESTI, isa.CMPXCHG, isa.POPF}},
	{renamesRSP, []isa.Op{isa.PUSH, isa.PUSHF, isa.POP, isa.POPF, isa.CALL, isa.CALLR, isa.RET}},
}

// opTimings is the static per-opcode table the cores time from.
var opTimings = func() (tab [256]opTiming) {
	for i := range tab {
		op := isa.Op(i)
		r, w := isa.ReadsMem(op), isa.WritesMem(op)
		lat := latALU
		switch isa.OpClass(op) {
		case isa.ClassMul:
			lat = latMul
			if op == isa.UDIV || op == isa.SDIV || op == isa.UREM {
				lat = latDiv
			}
		case isa.ClassVec:
			lat = latVec
		}
		tab[i] = opTiming{lat: lat, mem: r || w, memR: r, memW: w, cond: isa.IsCondBranch(op)}
	}
	for _, rule := range operandRules {
		for _, op := range rule.ops {
			tab[op].regs |= rule.regs
		}
	}
	return tab
}()

// port is one core's private path into the memory system: its TLBs, its
// own L1I, L1D and L2 by pointer, and the memos of three fast paths that
// leave every hit, miss and latency as a full access would.
//
// The fetch memo relies on the L1I and the ITLB being touched only by this
// core's fetches, and on an access leaving its line (or page) MRU. A fetch
// in the previous fetch's L1I line and page is then an MRU hit in both, and
// only counts an access in each. The data-page memo relies on the DTLB
// being touched only by this core's data accesses: one in the previous
// one's page is a DTLB MRU hit. With more than one core the L1D is not
// memoised, because another core's write can invalidate a line between two
// of this core's accesses. With one core only this core's data accesses
// touch its L1D, so an access to the MRU line of its set is a hit that only
// counts an access; the line's footprint bit is already set, since the
// L1D's lines are no larger than the footprint's.
type port struct {
	ITLB, DTLB *TLB

	hier         *Hierarchy
	id           int
	l1i, l1d, l2 *Cache
	l1iLat       int
	l1dLat       int
	// lats are the core's execution latencies by latKind.
	lats [4]uint64
	// l1dMRU enables the one-core L1D fast path.
	l1dMRU bool
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
		lats:      latencies(cfg),
		l1dMRU:    hier.cores == 1 && hier.l1d[id].shift <= dataLineShift,
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
	var lat int
	if ln := addr >> p.l1d.shift; p.l1dMRU && p.l1d.set(ln)[0] == ln|validBit {
		p.l1d.Accesses++
		lat = p.l1dLat
	} else {
		lat = p.hier.accessData(p.id, p.l1d, p.l2, addr, write)
	}
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

	dispatched uint64 // fractional-dispatch residue (instructions)
}

// NewIntervalCore builds an interval-model core bound to a hierarchy slot.
func NewIntervalCore(cfg CoreCfg, hier *Hierarchy, id int) *IntervalCore {
	return &IntervalCore{
		Cfg:  cfg,
		BP:   NewBranchPredictor(cfg.BranchPredictorBits),
		port: newPort(&cfg, hier, id),
	}
}

// Consume implements Core. The run's cycles and stall sums live in locals
// and are written back once at its end; the fetch memo and the predictor
// update their own fields.
func (c *IntervalCore) Consume(ins []isa.DecInst, dyn []uint64) {
	dyn = dyn[:len(ins)]
	p, bp := &c.port, c.BP
	cycles, loadStalls, branchStalls := c.Stats.Cycles, c.Stats.LoadStalls, c.Stats.BranchStalls
	for j := range ins {
		in := &ins[j]
		op := &opTimings[in.Op]
		pc := in.PC()
		// Instruction fetch: penalize only on I-side misses past L1.
		cycles += p.fetchStall(pc)
		// Data access: latency beyond L1 stalls the interval (no overlap in
		// this abstraction — Sniper's ECM would overlap; we fold MLP into a
		// 50% discount).
		if op.mem {
			if lat := p.dataLat(dyn[j], op.memW); lat > p.l1dLat && op.memR {
				stall := uint64(lat-p.l1dLat) / 2
				cycles += stall
				loadStalls += stall
			}
		}
		// Long-latency ops partially serialize.
		if lat := p.lats[op.lat]; lat > p.lats[latALU] {
			cycles += (lat - p.lats[latALU]) / 2
		}
		// Branch resolution.
		if op.cond && !bp.Predict(pc, dyn[j] != 0) {
			penalty := uint64(c.Cfg.MispredictPenalty)
			cycles += penalty
			branchStalls += penalty
		}
	}
	// Base dispatch cost: a cycle per DispatchWidth instructions, the
	// residue carried across runs (a width of zero dispatches one).
	width := uint64(c.Cfg.DispatchWidth)
	if width == 0 {
		width = 1
	}
	d := c.dispatched + uint64(len(ins))
	if d >= width {
		cycles += d / width
		d %= width
	}
	c.dispatched = d
	c.Stats.Cycles = cycles
	c.Stats.Instructions += uint64(len(ins))
	c.Stats.LoadStalls, c.Stats.BranchStalls = loadStalls, branchStalls
}

// Finish returns the core's stats; an interval core has no pipeline to
// drain.
func (c *IntervalCore) Finish() *CoreStats { return &c.Stats }

// OOOCore is the detailed out-of-order scoreboard model used by the
// CoreSim- and gem5-style simulators: register dependences through a rename
// table, bounded ROB and LSQ occupancy, in-order retirement at
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

// retire pops completed instructions off the ROB in order, at width per
// cycle, until at most occupancy remain, advancing the clock as it goes.
func retire(rob []uint64, clock uint64, budget, width, occupancy int) ([]uint64, uint64, int) {
	for len(rob) > occupancy {
		if head := rob[0]; head > clock {
			clock = head
			budget = width
		}
		if budget == 0 {
			clock++
			budget = width
		}
		rob = rob[1:]
		budget--
	}
	return rob, clock, budget
}

// Consume implements Core. The run's clocks, readiness and queue windows
// live in locals and are written back once at its end; the fetch memo and
// the predictor update their own fields.
func (c *OOOCore) Consume(ins []isa.DecInst, dyn []uint64) {
	if len(ins) == 0 {
		return
	}
	dyn = dyn[:len(ins)]
	p, bp := &c.port, c.BP
	reg := &c.regReady
	width, robSize, lsqSize := c.Cfg.DispatchWidth, c.Cfg.ROBSize, c.Cfg.LSQSize
	clock, frontend, budget, flagReady := c.clock, c.frontend, c.retireBudget, c.flagReady
	rob, lsq := c.rob, c.lsq
	n, branchStalls := c.Stats.Instructions, c.Stats.BranchStalls
	for j := range ins {
		in := &ins[j]
		op := &opTimings[in.Op]
		pc := in.PC()
		n++

		// Structural: ROB and LSQ space.
		rob, clock, budget = retire(rob, clock, budget, width, robSize-1)
		if op.mem {
			// Retire LSQ entries that completed.
			live := 0
			for _, done := range lsq {
				if done > clock {
					lsq[live] = done
					live++
				}
			}
			lsq = lsq[:live]
			if len(lsq) >= lsqSize {
				// Oldest memory op gates progress.
				clock = max(clock, lsq[0])
				lsq = lsq[1:]
			}
		}

		// Fetch: the front end delivers DispatchWidth per cycle; I-cache
		// misses push it out.
		issue := max(clock, frontend)
		if stall := p.fetchStall(pc); stall > 0 {
			frontend = issue + stall
			issue = frontend
		}

		// Dependences.
		regs := op.regs
		if regs&srcA != 0 {
			issue = max(issue, reg[in.A&(isa.NumGPR-1)])
		}
		if regs&srcB != 0 {
			issue = max(issue, reg[in.B&(isa.NumGPR-1)])
		}
		if regs&srcC != 0 {
			issue = max(issue, reg[in.C&(isa.NumGPR-1)])
		}
		if regs&srcRSP != 0 {
			issue = max(issue, reg[isa.RSP])
		}
		if op.cond {
			issue = max(issue, flagReady)
		}

		// Execution latency.
		lat := p.lats[op.lat]
		if op.mem {
			mlat := p.dataLat(dyn[j], op.memW)
			if op.memR {
				lat += uint64(mlat)
			} else {
				lat += uint64(p.l1dLat) // stores complete at L1
			}
		}
		done := issue + lat

		// Writeback.
		if regs&dstA != 0 {
			reg[in.A&(isa.NumGPR-1)] = done
		}
		if regs&setsFlags != 0 {
			flagReady = done
		}
		if regs&renamesRSP != 0 {
			reg[isa.RSP] = issue + 1 // stack engine renames rsp cheaply
		}

		// Branch resolution: a mispredict stalls the front end until
		// resolve + refill.
		if op.cond && !bp.Predict(pc, dyn[j] != 0) {
			penalty := uint64(c.Cfg.MispredictPenalty)
			frontend = max(frontend, done+penalty)
			branchStalls += penalty
		}

		rob = push(rob, c.robBuf, done)
		if op.mem {
			lsq = push(lsq, c.lsqBuf, done)
		}

		// Dispatch cost: at most DispatchWidth per cycle.
		if budget--; budget <= 0 {
			clock++
			budget = width
		}
		if n%1024 == 0 {
			// Periodically settle the clock against the ROB head so Cycles
			// tracks retirement, not just dispatch.
			rob, clock, budget = retire(rob, clock, budget, width, robSize/2)
		}
	}
	c.clock, c.frontend, c.retireBudget, c.flagReady = clock, frontend, budget, flagReady
	c.rob, c.lsq = rob, lsq
	c.Stats.Instructions, c.Stats.BranchStalls = n, branchStalls
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
	c.rob, c.clock, c.retireBudget = retire(c.rob, c.clock, c.retireBudget, c.Cfg.DispatchWidth, 0)
	if c.clock > c.Stats.Cycles {
		c.Stats.Cycles = c.clock
	}
	return &c.Stats
}
