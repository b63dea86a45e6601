// Package pin is the dynamic-instrumentation framework of the tool-chain —
// the stand-in for Intel Pin in the paper's stack.
//
// A Tool is a bundle of analysis callbacks. An Engine composes tools onto a
// vm.Machine's hooks, so several pintools (the PinPlay logger, the BBV
// profiler, the replayer's injection, a simulator's feeder) can observe one
// execution simultaneously, exactly as Pin-based tool stacks compose.
// Attach is the only way production code installs VM hooks.
package pin

import (
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/vm"
)

// Tool is one analysis tool's callbacks; nil callbacks are skipped.
// Filter-style callbacks (SyscallFilter, OnFault) are consulted in
// attachment order; the first tool that handles the event wins.
// SyscallFast is the inline twin of SyscallFilter (see vm.Hooks) and is
// only honoured alongside the same tool's SyscallFilter. OnIns hands the
// tool each retired instruction's record: its data access, branch outcome
// and marker tag. OnBlock is its block-granular twin (see vm.Hooks): a tool
// that needs only the retired instruction stream uses it and keeps the VM
// on its fast path. A tool that also needs each instruction's data address
// and branch outcome sets Trace and reads vm.Machine.Trace in OnBlock; the
// VM then stays on its chained core but gives up batching.
type Tool struct {
	Name          string
	OnIns         func(t *vm.Thread, r *vm.InsRecord)
	OnBlock       func(t *vm.Thread, ins []isa.DecInst, reps int)
	Trace         bool
	SyscallFilter func(t *vm.Thread, num uint64) (kernel.Result, bool)
	SyscallFast   func(t *vm.Thread, num uint64) (ret uint64, ok bool)
	OnSyscall     func(t *vm.Thread, num uint64, res kernel.Result)
	OnFault       func(t *vm.Thread, f *mem.Fault) bool
}

// Engine composes tools onto one machine's hooks. It keeps no state of its
// own: hooks already installed on the machine stay in place, and two
// engines on one machine compose exactly like one engine.
type Engine struct {
	Machine *vm.Machine
}

// NewEngine wraps a machine. Attach tools before running.
func NewEngine(m *vm.Machine) *Engine { return &Engine{Machine: m} }

// Attach composes t's non-nil callbacks onto the machine's hooks. A hook
// kind with a single provider gets that provider's function itself, so the
// per-event cost is unchanged and hook kinds no tool provides stay nil —
// the VM selects its block fast path from which observation hooks are nil.
// A later provider wraps the earlier ones: tools attached earlier see events
// first, and for SyscallFilter and OnFault the first tool that handles the
// event wins. t.SyscallFast is installed only when t is the first tool to
// filter system calls: behind an earlier filter it could retire a call that
// filter would have handled. A later filter keeps the first one's
// SyscallFast, since a call the first filter handles never reaches it.
func (e *Engine) Attach(t *Tool) {
	h := &e.Machine.Hooks
	if prev, next := h.OnIns, t.OnIns; next != nil {
		h.OnIns = next
		if prev != nil {
			h.OnIns = func(th *vm.Thread, r *vm.InsRecord) { prev(th, r); next(th, r) }
		}
	}
	if prev, next := h.OnBlock, t.OnBlock; next != nil {
		h.OnBlock = next
		if prev != nil {
			h.OnBlock = func(th *vm.Thread, ins []isa.DecInst, reps int) { prev(th, ins, reps); next(th, ins, reps) }
		}
	}
	h.Trace = h.Trace || t.Trace
	if prev, next := h.SyscallFilter, t.SyscallFilter; next != nil {
		if prev == nil {
			h.SyscallFilter, h.SyscallFast = next, t.SyscallFast
		} else {
			h.SyscallFilter = func(th *vm.Thread, num uint64) (kernel.Result, bool) {
				if res, handled := prev(th, num); handled {
					return res, true
				}
				return next(th, num)
			}
		}
	}
	if prev, next := h.OnSyscall, t.OnSyscall; next != nil {
		h.OnSyscall = next
		if prev != nil {
			h.OnSyscall = func(th *vm.Thread, num uint64, res kernel.Result) { prev(th, num, res); next(th, num, res) }
		}
	}
	if prev, next := h.OnFault, t.OnFault; next != nil {
		h.OnFault = next
		if prev != nil {
			h.OnFault = func(th *vm.Thread, f *mem.Fault) bool { return prev(th, f) || next(th, f) }
		}
	}
}

// ICounter is a trivial pintool counting instructions per thread; it is the
// canonical example tool, and the grid and pipeline benchmarks attach it to
// measure the per-instruction ("hooked") path.
type ICounter struct {
	Tool
	PerThread map[int]uint64
	Total     uint64
}

// NewICounter returns an instruction-counting tool.
func NewICounter() *ICounter {
	ic := &ICounter{PerThread: make(map[int]uint64)}
	ic.Tool.Name = "icounter"
	ic.Tool.OnIns = func(t *vm.Thread, _ *vm.InsRecord) {
		ic.PerThread[t.TID]++
		ic.Total++
	}
	return ic
}
