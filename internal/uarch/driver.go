package uarch

import (
	"elfie/internal/isa"
	"elfie/internal/pin"
	"elfie/internal/vm"
)

// Core is a per-context timing model: IntervalCore or OOOCore. Consume
// times a run of retired instructions, in order, from their decoded forms
// and their trace entries (see vm.Hooks.Trace): dyn[i] is the data address
// of ins[i]'s memory access, or the outcome of a conditional branch. How a
// stream is cut into runs changes no count.
type Core interface {
	Consume(ins []isa.DecInst, dyn []uint64)
	Finish() *CoreStats
}

// Driver is the one way a timing model attaches to a machine: perfle,
// CoreSim, Sniper and gem5 differ only in their cores, in what they count
// (Count) and in what they do after each instruction (SetAfter).
//
// The driver is an OnBlock pintool that asks for the run trace, so the
// machine stays on its chained core. Each retired run is timed at once,
// from the run's decoded instructions and their trace entries, by one
// Consume call per stretch between counted events; thread tid's runs go to
// core tid % len(Cores).
//
// The window opens once: at the start when the start tag is 0, else at an
// SSCMARK or MAGIC instruction carrying the tag — the instructions every
// core.Convert marker flavour emits; the marker itself is timed. Close
// ends it for good.
type Driver[C Core] struct {
	Cores []C
	Hier  *Hierarchy

	m         *vm.Machine
	startTag  uint32
	measuring bool
	closed    bool
	after     func(in *isa.DecInst)

	// countTID is the thread whose windowed instructions count (every
	// thread's when negative, none when onDue is nil); onDue runs after
	// the instruction that brings count to due.
	countTID   int
	count, due uint64
	onDue      func(tid int) uint64
}

// Attach builds n cores of cfg (made by newCore) over one hierarchy and
// installs the driver on m as a pintool, composing with any hooks that are
// already installed (e.g. replay injection).
func Attach[C Core](m *vm.Machine, newCore func(CoreCfg, *Hierarchy, int) C,
	cfg CoreCfg, hier HierarchyCfg, n int, startTag uint32) *Driver[C] {
	d := &Driver[C]{Hier: NewHierarchy(hier, n), m: m, startTag: startTag, measuring: startTag == 0}
	for i := 0; i < n; i++ {
		d.Cores = append(d.Cores, newCore(cfg, d.Hier, i))
	}
	dyn := m.Trace()
	pin.NewEngine(m).Attach(&pin.Tool{Name: "uarch", Trace: true,
		OnBlock: func(t *vm.Thread, ins []isa.DecInst, _ int) { d.time(t.TID, ins, dyn) }})
	return d
}

// time times thread tid's retired run ins, whose trace is dyn[:len(ins)].
// Between two counted events the run is fed in one stretch.
func (d *Driver[C]) time(tid int, ins []isa.DecInst, dyn []uint64) {
	j := 0
	if !d.measuring {
		// The window opens at the start marker, which is timed.
		if d.closed {
			return
		}
		for ; j < len(ins); j++ {
			if op := ins[j].Op; (op == isa.SSCMARK || op == isa.MAGIC) && uint32(ins[j].Imm) == d.startTag {
				break
			}
		}
		if j == len(ins) {
			return
		}
		d.measuring = true
	}
	counted := d.onDue != nil && (d.countTID < 0 || d.countTID == tid)
	for j < len(ins) {
		end := len(ins)
		if d.after != nil {
			end = j + 1
		}
		if counted && d.due-d.count < uint64(end-j) {
			end = j + int(d.due-d.count)
		}
		d.Core(tid).Consume(ins[j:end], dyn[j:end])
		if counted {
			if d.count += uint64(end - j); d.count >= d.due {
				d.due = d.onDue(tid)
			}
		}
		if d.after != nil {
			d.after(&ins[j])
			if d.closed {
				return
			}
		}
		j = end
	}
}

// Count asks the driver to count windowed instructions: thread tid's, or
// every thread's when tid is negative. After the instruction that brings
// the count to due, the driver calls onDue with that instruction's
// thread; onDue returns the next due count, which must lie beyond the
// current one.
func (d *Driver[C]) Count(tid int, due uint64, onDue func(tid int) uint64) {
	d.countTID, d.due, d.onDue = tid, due, onDue
}

// Counted returns the number of instructions Count has counted.
func (d *Driver[C]) Counted() uint64 { return d.count }

// SetAfter makes f run after each windowed instruction has been timed.
// f may Close the window: the machine then stops right after that
// instruction. For that the driver keeps the machine on its
// per-instruction path (vm.Machine.DisableBlockCache), so a front-end
// uses After only when it may Close.
func (d *Driver[C]) SetAfter(f func(in *isa.DecInst)) {
	d.after = f
	d.m.DisableBlockCache = true
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

// Close ends the window for good and stops the machine. Called from the
// After function, it stops the machine right after the instruction being
// timed.
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
