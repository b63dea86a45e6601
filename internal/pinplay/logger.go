// Package pinplay implements the record/replay layer of the tool-chain:
// the region logger that captures pinballs from a program execution, and
// the constrained replayer that re-executes them with system-call
// side-effect injection and thread-order enforcement.
package pinplay

import (
	"fmt"
	"sort"

	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pin"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// LogOptions selects the region to capture and the logging mode.
type LogOptions struct {
	// Name is the pinball name (file prefix).
	Name string
	// RegionStart is the global instruction count at which capture begins.
	RegionStart uint64
	// RegionLength is the aggregate instruction count to capture.
	RegionLength uint64
	// WarmupLength is recorded in the metadata: the leading part of the
	// region meant for microarchitectural warm-up (PinPoints-style).
	WarmupLength uint64
	// WholeImage records all loaded program-image pages (-log:whole_image).
	WholeImage bool
	// PagesEarly eagerly records every page mapped at region start
	// (-log:pages_early).
	PagesEarly bool
}

// Fat returns options with both fat-pinball switches set (-log:fat).
func (o LogOptions) Fat() LogOptions {
	o.WholeImage = true
	o.PagesEarly = true
	return o
}

// IsFat reports whether both fat switches are on.
func (o LogOptions) IsFat() bool { return o.WholeImage && o.PagesEarly }

// Log fast-forwards the machine to the region start, captures the region as
// a pinball, and leaves the machine stopped at region end. The machine must
// be freshly loaded and use a deterministic scheduler.
func Log(m *vm.Machine, opts LogOptions) (*pinball.Pinball, error) {
	return logAt(m, 0, opts)
}

// LogSession is Log on a harness session, which may resume a mid-run
// checkpoint (Session.CheckpointState): RegionStart and the pinball's
// RegionStartIcount count from the program's start either way
// (Session.Icount), so a region logged from a snapshot taken at or before
// its start is byte-identical to one logged from a fresh session.
func LogSession(s *harness.Session, opts LogOptions) (*pinball.Pinball, error) {
	if at := s.Icount(); opts.RegionStart < at {
		return nil, fmt.Errorf("pinplay: session is at instruction %d, past region start %d", at, opts.RegionStart)
	}
	return logAt(s.Machine, s.Icount()-s.Machine.GlobalRetired, opts)
}

// logAt is Log on a machine whose GlobalRetired counts from base.
func logAt(m *vm.Machine, base uint64, opts LogOptions) (*pinball.Pinball, error) {
	if opts.RegionLength == 0 {
		return nil, fmt.Errorf("pinplay: zero region length")
	}
	if opts.Name == "" {
		opts.Name = "pinball"
	}

	// Phase 1: fast-forward to the region start.
	if opts.RegionStart > base+m.GlobalRetired {
		m.MaxInstructions = opts.RegionStart - base
		if err := harness.WrapRun(harness.ModeLog, m.Run()); err != nil {
			return nil, err
		}
		if m.Halted || m.AliveCount() == 0 {
			return nil, fmt.Errorf("pinplay: program ended at %d instructions, before region start %d",
				base+m.GlobalRetired, opts.RegionStart)
		}
	}

	pb := &pinball.Pinball{Name: opts.Name}
	pb.Meta = pinball.Meta{
		Version:           pinball.FormatVersion,
		NumThreads:        len(m.Threads),
		RegionLength:      make([]uint64, len(m.Threads)),
		WarmupLength:      opts.WarmupLength,
		Fat:               opts.IsFat(),
		RegionStartIcount: base + m.GlobalRetired,
		BrkStart:          m.Proc.BrkStart,
		Brk:               m.Proc.Brk,
	}
	for _, t := range m.Threads {
		if !t.Alive {
			return nil, fmt.Errorf("pinplay: thread %d dead at region start", t.TID)
		}
		pb.Regs = append(pb.Regs, t.Regs)
		// Identify the thread's stack extent for the stack-collision fix:
		// a window around rsp, clipped to the containing mapped region.
		// (Thread stacks may live inside larger data mappings; treating
		// the whole mapping as stack would balloon the ELFie's startup
		// remap.)
		if lo, hi, ok := stackWindow(m.Proc.AS, t.Regs.GPR[isa.RSP]); ok {
			pb.Meta.StackRegions = append(pb.Meta.StackRegions, [2]uint64{lo, hi})
		}
	}
	pb.Meta.StackRegions = mergeRanges(pb.Meta.StackRegions)

	lg := newLoggerTool(m, pb)

	// Eager page capture.
	if opts.PagesEarly {
		for _, r := range m.Proc.AS.Regions() {
			lg.captureRange(r.Addr, r.Size)
		}
	} else if opts.WholeImage {
		for _, r := range m.Proc.ImageRegions {
			lg.captureRange(r.Addr, r.Size)
		}
	}

	// Phase 2: run the region on the chained core with the logger
	// attached, then give the caller back its own hooks whether or not the
	// run succeeded.
	saved := m.Hooks
	as := m.Proc.AS
	pin.NewEngine(m).Attach(&lg.Tool)
	as.TrackFirstTouch(lg.capturePage)
	m.MaxInstructions = m.GlobalRetired + opts.RegionLength
	err := harness.WrapRun(harness.ModeLog, m.Run())
	as.TrackFirstTouch(nil)
	m.Hooks = saved
	if err != nil {
		return nil, err
	}

	for i, t := range m.Threads {
		if i < len(lg.startRetired) {
			pb.Meta.RegionLength[i] = t.Retired - lg.startRetired[i]
		} else {
			// Thread created inside the region: its whole life is in-region.
			pb.Meta.RegionLength = append(pb.Meta.RegionLength, t.Retired)
		}
		pb.Meta.TotalInstructions += pb.Meta.RegionLength[i]
	}
	// End condition for multi-threaded simulation (paper §IV.B): prefer
	// the last atomic instruction — barrier arrivals execute a fixed,
	// schedule-independent number of times per region, unlike spin-loop
	// bodies. Fall back to the last executed instruction.
	if lg.lastAtomicPC != 0 {
		pb.Meta.EndPC = lg.lastAtomicPC
	} else {
		pb.Meta.EndPC = lg.lastPC
	}
	pb.Meta.EndCount = lg.executions(pb.Meta.EndPC)
	pb.Sched = lg.sched
	pb.Syscalls = lg.syscalls
	pb.SortPages()
	return pb, nil
}

// Stack window captured around each thread's stack pointer: the live
// frames sit at and above rsp; a slack below covers frames pushed later in
// the region.
const (
	stackWindowBelow = 64 << 10
	stackWindowAbove = 192 << 10
)

func stackWindow(as *mem.AddrSpace, rsp uint64) (lo, hi uint64, ok bool) {
	for _, r := range as.Regions() {
		if rsp < r.Addr || rsp >= r.Addr+r.Size {
			continue
		}
		lo = r.Addr
		if rsp-stackWindowBelow > lo {
			lo = (rsp - stackWindowBelow) &^ (mem.PageSize - 1)
		}
		hi = r.Addr + r.Size
		if rsp+stackWindowAbove < hi {
			hi = (rsp + stackWindowAbove + mem.PageSize - 1) &^ (mem.PageSize - 1)
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// mergeRanges sorts and coalesces overlapping [lo, hi) ranges.
func mergeRanges(rs [][2]uint64) [][2]uint64 {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r[0] <= last[1] {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// loggerTool is the pintool that performs region capture. It observes only
// block-granular events, so the region runs on the chained core: retired
// runs (OnBlock) give the schedule, the end condition and the code pages;
// the address space's first-touch callback gives the data pages, each
// captured before the access that first touches it; SyscallFilter (which
// declines every call) and OnSyscall bracket each system call.
type loggerTool struct {
	pin.Tool
	m  *vm.Machine
	pb *pinball.Pinball

	captured     map[uint64]bool // page number -> captured
	sched        []vm.SchedRecord
	syscalls     []pinball.SyscallEffect
	startRetired []uint64
	// runs counts the visits of each multi-instruction run of the block
	// cache; single-instruction runs, which may come from the step path's
	// reused scratch slot, are counted per PC in pcCounts instead.
	runs         map[runKey]*runCount
	pcCounts     map[uint64]uint64
	lastPC       uint64
	lastAtomicPC uint64
	preFS, preGS map[int]uint64
	preArgs      map[int][5]uint64
}

// runKey identifies a retired run of the block cache: decoded blocks are
// never modified once built, so a run is its first instruction's address
// in the cache plus its length. runCount holds the run itself, which keeps
// the cache memory alive, so the address cannot be reused while the logger
// runs.
type runKey struct {
	first *isa.DecInst
	n     int
}

// runCount is one run's visit count, with the index of its last atomic
// instruction (-1 if none).
type runCount struct {
	ins    []isa.DecInst
	visits uint64
	atomic int
}

func newLoggerTool(m *vm.Machine, pb *pinball.Pinball) *loggerTool {
	lg := &loggerTool{
		m: m, pb: pb,
		captured: make(map[uint64]bool),
		runs:     make(map[runKey]*runCount),
		pcCounts: make(map[uint64]uint64),
		preFS:    make(map[int]uint64),
		preGS:    make(map[int]uint64),
		preArgs:  make(map[int][5]uint64),
	}
	lg.startRetired = make([]uint64, len(m.Threads))
	for i, t := range m.Threads {
		lg.startRetired[i] = t.Retired
	}
	lg.Tool.Name = "pinplay-logger"
	lg.Tool.OnBlock = lg.onBlock
	lg.Tool.SyscallFilter = lg.preSyscall
	lg.Tool.OnSyscall = lg.onSyscall
	return lg
}

// capturePage records a page's current content once. Data pages arrive
// from the first-touch callback, which fires before the access; code
// pages arrive after their run retired, which left them unchanged — a
// store into a page is itself a first touch. Either way the capture
// observes the page as it was at region start.
func (lg *loggerTool) capturePage(addr uint64) {
	pn := mem.PageNum(addr)
	if lg.captured[pn] {
		return
	}
	lg.captured[pn] = true
	base := pn << mem.PageShift
	data := lg.m.Proc.AS.PageData(base)
	if data == nil {
		return // unmapped: the access is about to fault; nothing to record
	}
	lg.pb.Pages = append(lg.pb.Pages, pinball.Page{
		Addr: base, Prot: lg.m.Proc.AS.Prot(base), Data: data,
	})
}

func (lg *loggerTool) captureRange(addr, size uint64) {
	if size == 0 {
		return
	}
	for p := mem.PageBase(addr); p < addr+size; p += mem.PageSize {
		lg.capturePage(p)
	}
}

// isAtomic reports the read-modify-write instructions the end condition
// prefers.
func isAtomic(op isa.Op) bool {
	switch op {
	case isa.XADD, isa.XCHG, isa.CMPXCHG:
		return true
	}
	return false
}

// onBlock records reps back-to-back retirements of the run ins by t.
func (lg *loggerTool) onBlock(t *vm.Thread, ins []isa.DecInst, reps int) {
	if len(ins) == 0 || reps < 1 {
		return
	}
	// Schedule trace.
	n := uint64(len(ins)) * uint64(reps)
	if k := len(lg.sched); k > 0 && lg.sched[k-1].TID == t.TID {
		lg.sched[k-1].N += n
	} else {
		lg.sched = append(lg.sched, vm.SchedRecord{TID: t.TID, N: n})
	}
	last := &ins[len(ins)-1]
	lg.lastPC = last.PC()
	if len(ins) == 1 {
		pc := lg.lastPC
		lg.captureRange(pc, last.Next-pc)
		lg.pcCounts[pc] += uint64(reps)
		if isAtomic(last.Op) {
			lg.lastAtomicPC = pc
		}
		return
	}
	rc := lg.run(ins)
	rc.visits += uint64(reps)
	if rc.atomic >= 0 {
		lg.lastAtomicPC = ins[rc.atomic].PC()
	}
}

// run returns the visit count of the multi-instruction run ins, creating
// it — and capturing the run's code pages — on the first visit.
func (lg *loggerTool) run(ins []isa.DecInst) *runCount {
	key := runKey{&ins[0], len(ins)}
	rc := lg.runs[key]
	if rc == nil {
		// First visit: capture the code pages and find the last atomic
		// instruction.
		rc = &runCount{ins: ins, atomic: -1}
		for i := range ins {
			pc := ins[i].PC()
			lg.captureRange(pc, ins[i].Next-pc)
			if isAtomic(ins[i].Op) {
				rc.atomic = i
			}
		}
		lg.runs[key] = rc
	}
	return rc
}

// executions returns how many times the instruction at pc retired in the
// region.
func (lg *loggerTool) executions(pc uint64) uint64 {
	n := lg.pcCounts[pc]
	for _, rc := range lg.runs {
		for i := range rc.ins {
			if rc.ins[i].PC() == pc {
				n += rc.visits
			}
		}
	}
	return n
}

// preSyscall records the state side-effect detection compares against —
// the argument registers and segment bases before the call — and declines
// the call, so the kernel runs it. The chained core hands every system
// call to the step path with its state fully spilled.
func (lg *loggerTool) preSyscall(t *vm.Thread, num uint64) (kernel.Result, bool) {
	lg.preFS[t.TID] = t.Regs.FSBase
	lg.preGS[t.TID] = t.Regs.GSBase
	lg.preArgs[t.TID] = [5]uint64{
		t.Regs.GPR[isa.R1], t.Regs.GPR[isa.R2], t.Regs.GPR[isa.R3],
		t.Regs.GPR[isa.R4], t.Regs.GPR[isa.R5],
	}
	return kernel.Result{}, false
}

func (lg *loggerTool) onSyscall(t *vm.Thread, num uint64, res kernel.Result) {
	eff := pinball.SyscallEffect{
		TID:  t.TID,
		Num:  num,
		Ret:  res.Ret,
		Args: lg.preArgs[t.TID],
	}
	switch num {
	case kernel.SysClone, kernel.SysExit, kernel.SysExitGroup:
		eff.Executed = true
	}
	if fs := t.Regs.FSBase; fs != lg.preFS[t.TID] {
		eff.FSBase = &fs
	}
	if gs := t.Regs.GSBase; gs != lg.preGS[t.TID] {
		eff.GSBase = &gs
	}
	for _, w := range res.MemWrites {
		data := make([]byte, w.Len)
		n := lg.m.Proc.AS.ReadNoFault(w.Addr, data)
		eff.MemWrites = append(eff.MemWrites, pinball.MemWriteData{
			Addr: w.Addr, Data: data[:n],
		})
		// The kernel's copy-out fires no first-touch callback; capture the
		// touched pages (post-call content, which is what replay will
		// reproduce anyway).
		lg.captureRange(w.Addr, uint64(w.Len))
	}
	lg.syscalls = append(lg.syscalls, eff)
}
