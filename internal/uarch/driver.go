package uarch

import (
	"elfie/internal/isa"
	"elfie/internal/pin"
	"elfie/internal/vm"
)

// DynInst is one dynamically executed instruction as seen by a timing model.
type DynInst struct {
	TID     int
	PC      uint64
	Ins     isa.Inst
	Class   isa.Class
	MemR    bool
	MemW    bool
	MemAddr uint64
	MemSize int
	Branch  bool
	Taken   bool
	Target  uint64
	Kernel  bool // ring-0 instruction (full-system injection)
}

// Core is a per-context timing model: IntervalCore or OOOCore.
type Core interface {
	Consume(d *DynInst)
	Finish() *CoreStats
}

// Driver is the one way a timing model attaches to a machine: perfle,
// CoreSim, Sniper and gem5 differ only in their cores and in what they do
// with each instruction after it is consumed (After).
//
// The driver turns the machine's instrumentation hooks into a DynInst
// stream. Because hooks fire before effects and in a fixed order per
// instruction (OnIns, then memory/branch hooks), it assembles one record per
// instruction and consumes it when the next instruction begins (or at
// Finish). A record inside the measurement window goes to core
// TID % len(Cores).
//
// The window opens once: at the start when the start tag is 0, else when an
// SSCMARK or MAGIC instruction carries the tag — the instructions every
// core.Convert marker flavour emits. Close ends it for good.
type Driver[C Core] struct {
	Cores []C
	Hier  *Hierarchy
	// After, when set, runs after each windowed instruction's core has
	// consumed it.
	After func(d *DynInst)

	m         *vm.Machine
	measuring bool
	closed    bool
	pending   DynInst
	have      bool
}

// Attach builds n cores of cfg (made by newCore) over one hierarchy and
// installs the driver on m as a pintool, composing with any hooks that are
// already installed (e.g. replay injection).
func Attach[C Core](m *vm.Machine, newCore func(CoreCfg, *Hierarchy, int) C,
	cfg CoreCfg, hier HierarchyCfg, n int, startTag uint32) *Driver[C] {
	d := &Driver[C]{Hier: NewHierarchy(hier, n), m: m, measuring: startTag == 0}
	for i := 0; i < n; i++ {
		d.Cores = append(d.Cores, newCore(cfg, d.Hier, i))
	}
	tool := &pin.Tool{
		Name: "uarch",
		OnIns: func(t *vm.Thread, pc uint64, ins isa.Inst) {
			d.flush()
			// Fill the one record in place: assigning a DynInst literal
			// would build and copy a whole record per instruction.
			p := &d.pending
			p.TID, p.PC, p.Ins, p.Class = t.TID, pc, ins, isa.OpClass(ins.Op)
			p.MemR, p.MemW, p.MemAddr, p.MemSize = false, false, 0, 0
			p.Branch, p.Taken, p.Target, p.Kernel = false, false, 0, false
			d.have = true
		},
		OnMemRead: func(t *vm.Thread, addr uint64, size int) {
			if d.have {
				d.pending.MemR = true
				d.pending.MemAddr = addr
				d.pending.MemSize = size
			}
		},
		OnMemWrite: func(t *vm.Thread, addr uint64, size int) {
			if d.have {
				d.pending.MemW = true
				d.pending.MemAddr = addr
				d.pending.MemSize = size
			}
		},
		OnBranch: func(t *vm.Thread, pc, target uint64, taken bool) {
			if d.have {
				d.pending.Branch = true
				d.pending.Taken = taken
				d.pending.Target = target
			}
		},
	}
	if startTag != 0 {
		tool.OnMarker = func(t *vm.Thread, op isa.Op, tag uint32) {
			if tag == startTag && (op == isa.SSCMARK || op == isa.MAGIC) && !d.closed {
				d.measuring = true
			}
		}
	}
	pin.NewEngine(m).Attach(tool)
	return d
}

// flush consumes the pending record, if any.
func (d *Driver[C]) flush() {
	if d.have {
		d.consume(&d.pending)
		d.have = false
	}
}

func (d *Driver[C]) consume(r *DynInst) {
	if !d.measuring {
		return
	}
	d.Core(r.TID).Consume(r)
	if d.After != nil {
		d.After(r)
	}
}

// Core returns the core thread tid runs on.
func (d *Driver[C]) Core(tid int) C { return d.Cores[tid%len(d.Cores)] }

// Measuring reports whether the window is open.
func (d *Driver[C]) Measuring() bool { return d.measuring }

// Close ends the window for good and stops the machine.
func (d *Driver[C]) Close() {
	d.measuring, d.closed = false, true
	d.m.RequestStop()
}

// Closed reports whether Close ended the window.
func (d *Driver[C]) Closed() bool { return d.closed }

// Finish consumes the last instruction and finishes every core. It returns
// the per-core stats and their total: counts summed, Cycles the critical
// path (the slowest core).
func (d *Driver[C]) Finish() (perCore []CoreStats, total CoreStats) {
	d.flush()
	for _, c := range d.Cores {
		st := *c.Finish()
		perCore = append(perCore, st)
		total.Instructions += st.Instructions
		total.KernelInstr += st.KernelInstr
		total.LoadStalls += st.LoadStalls
		total.BranchStalls += st.BranchStalls
		total.Cycles = max(total.Cycles, st.Cycles)
	}
	return perCore, total
}
