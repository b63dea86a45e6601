package uarch

import (
	"elfie/internal/isa"
	"elfie/internal/pin"
	"elfie/internal/vm"
)

// DynInst is one dynamically executed instruction as seen by a timing
// model: the VM's record of it, plus the thread, the opcode class and
// whether it is a ring-0 instruction (full-system injection). The driver
// hands over the machine's own record, not a copy, so a DynInst is valid
// only during the Consume or After call that receives it; a caller that
// keeps one must copy the record too.
type DynInst struct {
	*vm.InsRecord
	TID    int
	Class  isa.Class
	Kernel bool
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
// The driver is an OnIns pintool: each retired instruction's record is
// wrapped, not copied, in one DynInst and timed at once. A record inside
// the measurement window goes to core TID % len(Cores); with one core the
// driver calls that core's Consume directly.
//
// The window opens once: at the start when the start tag is 0, else at an
// SSCMARK or MAGIC instruction carrying the tag — the instructions every
// core.Convert marker flavour emits; the marker itself is timed. Close
// ends it for good.
type Driver[C Core] struct {
	Cores []C
	Hier  *Hierarchy
	// After, when set, runs after each windowed instruction's core has
	// consumed it.
	After func(d *DynInst)

	m         *vm.Machine
	measuring bool
	closed    bool
	rec       DynInst
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
	// One core of a known type gets a direct call: no TID % n, and no
	// call through the generic Core's dictionary.
	var interval *IntervalCore
	var ooo *OOOCore
	if n == 1 {
		interval, _ = any(d.Cores[0]).(*IntervalCore)
		ooo, _ = any(d.Cores[0]).(*OOOCore)
	}
	rec := &d.rec
	// A func literal rather than a method value, which would add a call
	// level per instruction.
	onIns := func(t *vm.Thread, r *vm.InsRecord) {
		if !d.measuring {
			// The window opens at the start marker, which is timed.
			if d.closed || uint32(r.Ins.Imm) != startTag || r.Ins.Op != isa.SSCMARK && r.Ins.Op != isa.MAGIC {
				return
			}
			d.measuring = true
		}
		rec.InsRecord, rec.TID, rec.Class = r, t.TID, isa.OpClass(r.Ins.Op)
		switch {
		case interval != nil:
			interval.Consume(rec)
		case ooo != nil:
			ooo.Consume(rec)
		default:
			d.Core(t.TID).Consume(rec)
		}
		if d.After != nil {
			d.After(rec)
		}
	}
	pin.NewEngine(m).Attach(&pin.Tool{Name: "uarch", OnIns: onIns})
	return d
}

// Core returns the core thread tid runs on.
func (d *Driver[C]) Core(tid int) C {
	if uint(tid) < uint(len(d.Cores)) {
		return d.Cores[tid]
	}
	return d.Cores[tid%len(d.Cores)]
}

// Measuring reports whether the window is open.
func (d *Driver[C]) Measuring() bool { return d.measuring }

// Close ends the window for good and stops the machine. Called from After,
// it stops the machine right after the instruction being timed.
func (d *Driver[C]) Close() {
	d.measuring, d.closed = false, true
	d.m.RequestStop()
}

// Closed reports whether Close ended the window.
func (d *Driver[C]) Closed() bool { return d.closed }

// Finish finishes every core. It returns the per-core stats and their
// total: counts summed, Cycles the critical path (the slowest core).
func (d *Driver[C]) Finish() (perCore []CoreStats, total CoreStats) {
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
