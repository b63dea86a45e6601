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

// Consumer receives the dynamic instruction stream.
type Consumer interface {
	Consume(d *DynInst)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(d *DynInst)

// Consume implements Consumer.
func (f ConsumerFunc) Consume(d *DynInst) { f(d) }

// Feeder turns a machine's instrumentation hooks into a DynInst stream.
// Because hooks fire before effects and in a fixed order per instruction
// (OnIns, then memory/branch hooks), the feeder assembles one record per
// instruction and emits it when the next instruction begins (or at Flush).
type Feeder struct {
	sink    Consumer
	pending DynInst
	have    bool
}

// NewFeeder attaches a feeder to a machine as a pintool, composing with
// any hooks that are already installed.
func NewFeeder(m *vm.Machine, sink Consumer) *Feeder {
	f := &Feeder{sink: sink}
	pin.NewEngine(m).Attach(&pin.Tool{
		Name: "uarch-feeder",
		OnIns: func(t *vm.Thread, pc uint64, ins isa.Inst) {
			f.Flush()
			// Fill the one record in place: assigning a DynInst literal
			// would build and copy a whole record per instruction.
			p := &f.pending
			p.TID, p.PC, p.Ins, p.Class = t.TID, pc, ins, isa.OpClass(ins.Op)
			p.MemR, p.MemW, p.MemAddr, p.MemSize = false, false, 0, 0
			p.Branch, p.Taken, p.Target, p.Kernel = false, false, 0, false
			f.have = true
		},
		OnMemRead: func(t *vm.Thread, addr uint64, size int) {
			if f.have {
				f.pending.MemR = true
				f.pending.MemAddr = addr
				f.pending.MemSize = size
			}
		},
		OnMemWrite: func(t *vm.Thread, addr uint64, size int) {
			if f.have {
				f.pending.MemW = true
				f.pending.MemAddr = addr
				f.pending.MemSize = size
			}
		},
		OnBranch: func(t *vm.Thread, pc, target uint64, taken bool) {
			if f.have {
				f.pending.Branch = true
				f.pending.Taken = taken
				f.pending.Target = target
			}
		},
	})
	return f
}

// Flush emits the pending record, if any. Call after the machine stops to
// deliver the final instruction.
func (f *Feeder) Flush() {
	if f.have {
		f.sink.Consume(&f.pending)
		f.have = false
	}
}
