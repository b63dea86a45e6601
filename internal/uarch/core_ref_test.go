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
// their Consume bodies as they were before the fetch and data-page memos
// and the direct cache pointers: every fetch and data access goes through
// the hierarchy by core index and through the TLB in full. The memos are
// contractually cycle-identical, so every hit, miss and cycle must match.

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

func (c *refIntervalCore) Consume(d *DynInst) {
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
	if lat := opLatency(&c.Cfg, d.Class, d.Ins.Op); lat > c.Cfg.ALULat {
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

func (c *refOOOCore) Consume(d *DynInst) {
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
	srcs, n := srcRegs(&d.Ins)
	for i := 0; i < n; i++ {
		if r := c.regReady[srcs[i]]; r > issue {
			issue = r
		}
	}
	if isa.IsCondBranch(d.Ins.Op) && c.flagReady > issue {
		issue = c.flagReady
	}
	lat := uint64(opLatency(&c.Cfg, d.Class, d.Ins.Op))
	if d.MemR || d.MemW {
		mlat := c.hier.AccessData(c.id, d.MemAddr, d.MemW) + c.DTLB.Access(d.MemAddr)
		if d.MemR {
			lat += uint64(mlat)
		} else {
			lat += uint64(c.hier.cfg.L1D.LatCycles)
		}
	}
	done := issue + lat
	if dst := dstReg(&d.Ins); dst >= 0 {
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
	}
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
	rec     vm.InsRecord
	d       DynInst
}

func newDynStream(seed int64, threads int) *dynStream {
	s := &dynStream{rng: rand.New(rand.NewSource(seed)), threads: threads}
	for t := 0; t < threads; t++ {
		s.pcs = append(s.pcs, 0x400000+uint64(t)*0x3000+uint64(s.rng.Intn(64))*isa.InstLen)
		s.stream = append(s.stream, 0x20000000+uint64(t)<<24)
	}
	s.d.InsRecord = &s.rec
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
func (s *dynStream) next() *DynInst {
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
	s.rec = vm.InsRecord{
		PC:  *pc,
		Ins: isa.Inst{Op: op, A: uint8(r.Intn(isa.NumGPR)), B: uint8(r.Intn(isa.NumGPR)), C: uint8(r.Intn(isa.NumGPR))},
	}
	s.d.TID, s.d.Class, s.d.Kernel = s.tid, isa.OpClass(op), s.kernel > 0
	if isa.ReadsMem(op) || isa.WritesMem(op) {
		s.rec.MemR, s.rec.MemW = isa.ReadsMem(op), isa.WritesMem(op)
		s.rec.MemAddr, s.rec.MemSize = s.dataAddr(s.tid), 8
	}
	*pc += isa.InstLen
	if isa.IsBranch(op) {
		s.rec.Branch = true
		s.rec.Taken = !isa.IsCondBranch(op) || r.Intn(3) > 0
		if s.rec.Taken {
			switch k := r.Intn(10); {
			case k < 7: // a near branch, often in the same line
				s.rec.Target = *pc - 256 + uint64(r.Intn(64))*isa.InstLen
			case k < 9: // elsewhere in this code region
				s.rec.Target = *pc&^0xffff + uint64(r.Intn(8192))*isa.InstLen
			default: // another code region, another ITLB page
				s.rec.Target = 0x400000 + uint64(r.Intn(1<<16))*isa.InstLen
			}
			*pc = s.rec.Target
		}
	}
	return &s.d
}

// TestCoresMatchReference feeds generated streams through both timing
// cores and through their reference copies and requires every CoreStats
// field, every cache and TLB count, the coherence and prefetch counts,
// the footprint, the predictor's counts and, for the OOO core, the whole
// pipeline state (clocks, readiness, ROB and LSQ contents) to match: on 1, 3 and 8 cores,
// with more threads than cores, and with 32-, 64- and 128-byte L1I lines.
func TestCoresMatchReference(t *testing.T) {
	n := 40_000
	if testing.Short() {
		n = 10_000
	}
	type consumer interface {
		Consume(*DynInst)
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
				var got, want []consumer
				// diff describes how core i differs from its reference, or
				// is empty when they match.
				diff := func(i int) string {
					var g, w coreCounters
					queues := true
					switch c := got[i].(type) {
					case *IntervalCore:
						r := want[i].(*refIntervalCore)
						g, w = countersOf(&c.Stats, c.ITLB, c.DTLB, c.BP, h, i), countersOf(&r.Stats, r.ITLB, r.DTLB, r.BP, rh, i)
					case *OOOCore:
						r := want[i].(*refOOOCore)
						g, w = countersOf(&c.Stats, c.ITLB, c.DTLB, c.BP, h, i), countersOf(&r.Stats, r.ITLB, r.DTLB, r.BP, rh, i)
						g.OOO = oooState{c.clock, c.frontend, c.retireBudget, c.flagReady, c.regReady}
						w.OOO = oooState{r.clock, r.frontend, r.retireBudget, r.flagReady, r.regReady}
						if !slices.Equal(c.rob, r.rob) || !slices.Equal(c.lsq, r.lsq) {
							queues = false
						}
					}
					if g == w && queues {
						return ""
					}
					return fmt.Sprintf("\n got %+v\nwant %+v\nqueues match: %v", g, w, queues)
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
				kernel := 0
				for k := 0; k < n; k++ {
					d := s.next()
					if d.Kernel {
						kernel++
					}
					i := d.TID % cores
					got[i].Consume(d)
					want[i].Consume(d)
					if msg := diff(i); msg != "" {
						t.Fatalf("%s: instruction %d (tid %d, pc %#x, %s) differs on core %d:%s",
							name, k, d.TID, d.PC, d.Ins.Op.Name(), i, msg)
					}
				}
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
