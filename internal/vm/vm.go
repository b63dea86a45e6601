// Package vm implements the PVM-64 functional emulator: a multi-threaded
// machine with a pluggable scheduler, hardware-style per-thread performance
// counters, and instrumentation hooks.
//
// The hooks are the substrate for package pin (the Pin-like instrumentation
// framework); the scheduler abstraction is what lets the PinPlay replayer
// enforce the recorded thread interleaving while native ELFie runs get a
// seeded, jittering round-robin that models run-to-run variation.
package vm

import (
	"fmt"
	"sync/atomic"

	"elfie/internal/elfobj"
	"elfie/internal/fault"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
)

// Thread is one hardware thread of the machine.
type Thread struct {
	TID        int
	Regs       isa.RegFile
	Alive      bool
	ExitStatus int
	// Retired counts instructions this thread has retired.
	Retired uint64
	// Fault is set if the thread died on an unhandled memory fault
	// (the "ungraceful exit" of a divergent ELFie).
	Fault *mem.Fault
	// perf counters armed on this thread via perf_event_open.
	perf []*PerfCounter
	// perfDue is a Retired count no later than the first overflow of an
	// unfired counter, so a smaller Retired needs no look at perf. Zero,
	// as on a new thread, on arming and on restore, asks for a look.
	perfDue uint64
}

// PerfCounter models one hardware performance counter counting retired
// instructions, with an overflow action — the mechanism pinball2elf uses
// for the graceful-exit challenge.
type PerfCounter struct {
	Period         uint64
	Handler        uint64
	ExitOnOverflow bool
	// ExitGroup widens ExitOnOverflow's exit to the whole process.
	ExitGroup bool
	Fired     bool
	base      uint64 // thread Retired when armed
}

// Count returns the counter's current value for a thread.
func (p *PerfCounter) Count(t *Thread) uint64 { return t.Retired - p.base }

// PerfCounterState is the serializable form of an armed PerfCounter: the
// counter's configuration plus its current count relative to the thread.
// Storing the count (not the raw base) lets a checkpoint restore counters
// on a machine whose per-thread Retired totals restart at zero.
type PerfCounterState struct {
	Period         uint64 `json:"period"`
	Handler        uint64 `json:"handler,omitempty"`
	ExitOnOverflow bool   `json:"exit_on_overflow,omitempty"`
	ExitGroup      bool   `json:"exit_group,omitempty"`
	Fired          bool   `json:"fired,omitempty"`
	Count          uint64 `json:"count"`
}

// PerfState snapshots every counter armed on the thread.
func (t *Thread) PerfState() []PerfCounterState {
	if len(t.perf) == 0 {
		return nil
	}
	out := make([]PerfCounterState, len(t.perf))
	for i, p := range t.perf {
		out[i] = PerfCounterState{
			Period:         p.Period,
			Handler:        p.Handler,
			ExitOnOverflow: p.ExitOnOverflow,
			ExitGroup:      p.ExitGroup,
			Fired:          p.Fired,
			Count:          p.Count(t),
		}
	}
	return out
}

// RestorePerf re-arms counters from a snapshot, preserving each counter's
// logical count against the thread's current Retired total. The base
// subtraction wraps correctly even when the restored Retired is smaller
// than the count (uint64 modular arithmetic).
func (t *Thread) RestorePerf(states []PerfCounterState) {
	t.perf = t.perf[:0]
	t.perfDue = 0
	for _, st := range states {
		t.perf = append(t.perf, &PerfCounter{
			Period:         st.Period,
			Handler:        st.Handler,
			ExitOnOverflow: st.ExitOnOverflow,
			ExitGroup:      st.ExitGroup,
			Fired:          st.Fired,
			base:           t.Retired - st.Count,
		})
	}
}

// InsRecord is one retired instruction as OnIns reports it: where it ran,
// what it was, the data access it made and the control transfer it
// resolved. A marker's tag (SSCMARK, MAGIC, CPUID) is uint32(Ins.Imm).
// step fills it in the machine's scratch slot, so a hook sees it only
// during the call.
type InsRecord struct {
	PC  uint64
	Ins isa.Inst
	// MemR/MemW report a data read/write of MemSize bytes at MemAddr. An
	// instruction that reads and then writes sets both and keeps the
	// write's address and size: XCHG, XADD and CMPXCHG read and write the
	// same 8 bytes.
	MemR, MemW bool
	MemAddr    uint64
	MemSize    int
	// Branch reports a control-flow instruction, whether it was taken and
	// where it goes if taken.
	Branch, Taken bool
	Target        uint64
}

// Hooks are instrumentation callbacks. Any nil hook is skipped. OnIns and
// OnBlock fire after the instructions they report retire; the system-call
// and fault hooks fire around the effect they describe.
type Hooks struct {
	// OnIns fires after each instruction the per-instruction path retires,
	// including an exiting SYSCALL, with that instruction's record. A
	// faulting attempt that OnFault retries, or that kills the process,
	// does not retire and is not reported. r is valid only during the
	// call. Installing OnIns forces the per-instruction path.
	OnIns func(t *Thread, r *InsRecord)
	// OnBlock fires after t retires the straight-line run ins, reps times
	// back to back. The decoded-block executor reports each block or trace
	// visit as it exits (a tight self-loop's batched iterations as one call
	// with reps > 1, a visit cut short by a fault, budget, or stop as its
	// retired prefix); the per-instruction path reports every retired
	// instruction as a one-element run. Concatenated, the runs are exactly
	// the thread's retired instruction stream. Unlike OnIns it does not
	// force the per-instruction path. ins aliases the block cache
	// (or a per-machine scratch slot) and is only valid during the call;
	// hot state may be unspilled, so an implementation must not consult
	// t.Regs or t.Retired.
	OnBlock func(t *Thread, ins []isa.DecInst, reps int)
	// Trace asks for each run's dynamic trace alongside OnBlock: during
	// the call, Machine.Trace()[j] holds what ins[j] did that its decoded
	// form does not say — the data address of an instruction that reads
	// or writes memory (isa.ReadsMem, isa.WritesMem; the write's address
	// for the read-modify-write atomics), 1 or 0 for a taken or not-taken
	// conditional branch (isa.IsCondBranch), and anything for the rest.
	// The chained core records it on its per-instruction tier, so tracing
	// gives up batch runs and loop mode, and reps is always 1.
	Trace bool
	// SyscallFilter, when non-nil, may handle a system call entirely
	// (returning handled=true) — the replayer's side-effect injection.
	SyscallFilter func(t *Thread, num uint64) (res kernel.Result, handled bool)
	// SyscallFast, when set alongside SyscallFilter, may retire a
	// side-effect-free system call inline on the block fast path: a
	// pure-return injection (ok=true) commits ret to R0 without the full
	// state spill or kernel round-trip. It is called with hot state
	// unspilled — t.Regs.PC and the retired counters are stale — so an
	// implementation must only consult the thread identity and its own
	// log cursor, never t.Regs, and must decline (ok=false) anything with
	// memory/segment effects; declined calls re-execute via SyscallFilter
	// with fully spilled state.
	SyscallFast func(t *Thread, num uint64) (ret uint64, ok bool)
	// OnSyscall fires after a system call (native or injected) completes.
	OnSyscall func(t *Thread, num uint64, res kernel.Result)
	// OnFault may handle a memory fault (e.g. by injecting a logged page);
	// returning true retries the faulting instruction.
	OnFault func(t *Thread, f *mem.Fault) bool
}

// Scheduler picks the next thread to run and learns how far it got.
type Scheduler interface {
	// Next returns the TID to run and its quantum in instructions.
	// It is only called with at least one runnable thread.
	Next(m *Machine) (tid, quantum int)
	// Ran reports how many instructions the chosen thread executed
	// (possibly fewer than the quantum).
	Ran(tid, n int)
}

// RoundRobin is the default scheduler: rotate over runnable threads with a
// fixed quantum plus optional seeded jitter. Jitter models the OS-level
// run-to-run variation that makes multi-threaded ELFie runs non-
// deterministic; the PinPlay logger runs with Jitter = 0.
//
// The jitter stream comes from a splitmix64 generator whose whole state is
// one uint64, so a mid-run checkpoint can serialize the scheduler exactly
// (see RRState) and a resumed run draws the identical quantum sequence an
// uninterrupted run would have drawn.
type RoundRobin struct {
	Quantum int
	Jitter  int
	rng     uint64 // splitmix64 state
	last    int
	// resid is a quantum remainder owed to last before normal rotation
	// resumes: when a run stops mid-quantum (Machine.Run sets it, and a
	// checkpoint records it), the next run grants exactly that first.
	resid int
}

// NewRoundRobin returns a round-robin scheduler. If jitter > 0, quanta vary
// uniformly in [quantum-jitter, quantum+jitter], driven by seed.
func NewRoundRobin(quantum, jitter int, seed int64) *RoundRobin {
	return &RoundRobin{Quantum: quantum, Jitter: jitter, rng: uint64(seed)}
}

// next advances the splitmix64 state and returns the next raw draw.
func (rr *RoundRobin) next() uint64 {
	rr.rng += 0x9e3779b97f4a7c15
	z := rr.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next implements Scheduler.
func (rr *RoundRobin) Next(m *Machine) (int, int) {
	n := len(m.Threads)
	if rr.resid > 0 && rr.last < n && m.Threads[rr.last].Alive {
		return rr.last, rr.resid
	}
	rr.resid = 0
	for i := 1; i <= n; i++ {
		tid := (rr.last + i) % n
		if m.Threads[tid].Alive {
			rr.last = tid
			q := rr.Quantum
			if rr.Jitter > 0 {
				q += int(rr.next()%uint64(2*rr.Jitter+1)) - rr.Jitter
				if q < 1 {
					q = 1
				}
			}
			return tid, q
		}
	}
	return -1, 0
}

// Ran implements Scheduler.
func (rr *RoundRobin) Ran(tid, n int) { rr.resid = 0 }

// RRState is the serializable state of a RoundRobin scheduler, captured by
// mid-run checkpoints so a resumed run continues the identical quantum
// sequence.
type RRState struct {
	Quantum int    `json:"quantum"`
	Jitter  int    `json:"jitter"`
	Rng     uint64 `json:"rng"`
	Last    int    `json:"last"`
	// Resid is the unexecuted remainder of the quantum that was in flight
	// when the checkpoint was taken (0 = checkpoint fell on a quantum
	// boundary).
	Resid int `json:"resid,omitempty"`
}

// State snapshots the scheduler. The caller supplies the in-flight quantum
// remainder (see Machine.PendingQuantum), which the scheduler itself cannot
// observe.
func (rr *RoundRobin) State(resid int) RRState {
	return RRState{Quantum: rr.Quantum, Jitter: rr.Jitter, Rng: rr.rng, Last: rr.last, Resid: resid}
}

// RestoreRoundRobin rebuilds a scheduler from a checkpointed state.
func RestoreRoundRobin(st RRState) *RoundRobin {
	return &RoundRobin{Quantum: st.Quantum, Jitter: st.Jitter, rng: st.Rng, last: st.Last, resid: st.Resid}
}

// SchedRecord is one run of instructions by one thread, as recorded by the
// PinPlay logger and enforced by the replayer.
type SchedRecord struct {
	TID int
	N   uint64
}

// TraceScheduler replays a recorded schedule exactly, then falls back to
// round-robin when the trace is exhausted.
type TraceScheduler struct {
	Trace    []SchedRecord
	pos      int
	consumed uint64
	Fallback Scheduler
}

// Next implements Scheduler.
func (ts *TraceScheduler) Next(m *Machine) (int, int) {
	for ts.pos < len(ts.Trace) {
		rec := ts.Trace[ts.pos]
		remaining := rec.N - ts.consumed
		if remaining == 0 {
			ts.pos++
			ts.consumed = 0
			continue
		}
		if rec.TID < len(m.Threads) && m.Threads[rec.TID].Alive {
			q := remaining
			if q > 1<<20 {
				q = 1 << 20
			}
			return rec.TID, int(q)
		}
		// Recorded thread is gone; skip the record.
		ts.pos++
		ts.consumed = 0
	}
	if ts.Fallback == nil {
		ts.Fallback = NewRoundRobin(100, 0, 0)
	}
	return ts.Fallback.Next(m)
}

// Ran implements Scheduler.
func (ts *TraceScheduler) Ran(tid, n int) {
	if ts.pos < len(ts.Trace) && ts.Trace[ts.pos].TID == tid {
		ts.consumed += uint64(n)
		if ts.consumed >= ts.Trace[ts.pos].N {
			ts.pos++
			ts.consumed = 0
		}
	}
}

// Exhausted reports whether the recorded schedule has been fully consumed.
func (ts *TraceScheduler) Exhausted() bool { return ts.pos >= len(ts.Trace) }

// Remaining returns the unconsumed tail of the trace, with the in-flight
// record reduced by what already ran — the schedule a mid-run checkpoint
// stores so constrained replay resumes at the exact interleaving point.
func (ts *TraceScheduler) Remaining() []SchedRecord {
	if ts.pos >= len(ts.Trace) {
		return nil
	}
	var out []SchedRecord
	first := ts.Trace[ts.pos]
	first.N -= ts.consumed
	if first.N > 0 {
		out = append(out, first)
	}
	return append(out, ts.Trace[ts.pos+1:]...)
}

// Machine is one emulated PVM computer running a single process.
type Machine struct {
	Kernel  *kernel.Kernel
	Proc    *kernel.Process
	Threads []*Thread
	Sched   Scheduler
	Hooks   Hooks

	// GlobalRetired counts instructions retired machine-wide.
	GlobalRetired uint64
	// MaxInstructions stops the run when GlobalRetired reaches it (0 = off).
	MaxInstructions uint64
	// PauseDoesNotYield makes PAUSE a pure timing hint instead of a
	// scheduler yield. The default (yielding) models timeslicing on few
	// CPUs; simulators of many-core machines where each thread owns a core
	// set it, so active-wait spin loops burn instructions at full rate, as
	// they do on hardware.
	PauseDoesNotYield bool

	// FaultInj, when non-nil, raises synthetic machine faults — forced page
	// faults and ungraceful exits — at the retired-instruction thresholds
	// its plan specifies.
	FaultInj *fault.Injector

	// DisableBlockCache forces the per-instruction interpreter even when no
	// instrumentation hooks are installed: the reference engine the
	// equivalence guards and the grid's interp mode run on, and an escape
	// hatch when debugging the fast path.
	DisableBlockCache bool

	// bcache is the decoded basic-block cache: page number -> predecoded
	// blocks, validated against the page generation (see block.go).
	bcache map[uint64]*pageBlocks
	// lastPN/lastPB memoize the most recent bcache lookup.
	lastPN uint64
	lastPB *pageBlocks
	// stepDec is the decode table of page stepPN, valid while the
	// address-space clock still reads stepClock (see stepInst).
	stepDec   *decodeTable
	stepPN    uint64
	stepClock uint64
	// cacheCap overrides maxCachedPages when nonzero (tests shrink it to
	// exercise eviction without building thousands of pages).
	cacheCap int
	// building guards superblock formation against re-entry: buildSuper
	// walks successor blocks through lookupBlock, which must not start a
	// nested formation.
	building bool

	// Halted is set by HLT, exit_group, or a fatal fault.
	Halted bool
	// stopReq asks the run loop to stop at the next instruction boundary.
	// It is atomic so watchdogs on other goroutines can interrupt a run
	// (RequestStop) without racing the executor.
	stopReq    atomic.Bool
	ExitStatus int
	// FatalFault is the fault that killed the process, if any.
	FatalFault *mem.Fault

	// lastTID/lastGranted/lastClipped/lastRan record the most recent
	// scheduler dispatch: the quantum the scheduler granted, what the
	// budget clip reduced it to, and how far the thread actually got.
	// Mid-run checkpoints derive the in-flight quantum remainder from them
	// (see PendingQuantum).
	lastTID     int
	lastGranted int
	lastClipped int
	lastRan     int

	fetchBuf [isa.LimmLen]byte
	// stepIns is the one-element run step reports to Hooks.OnBlock.
	stepIns [1]isa.DecInst
	// trace is the dynamic trace of the run being reported (see
	// Hooks.Trace): entry j belongs to the run's instruction j.
	trace [maxSuperLen]uint64
	// rec is the record of the instruction step is executing, reported
	// to Hooks.OnIns once it retires.
	rec InsRecord
}

// Trace returns the dynamic trace of the run OnBlock is reporting, one
// entry per instruction of the run (see Hooks.Trace). The slice is the
// machine's own buffer, as long as the longest run: a tool may keep it
// and read it on every OnBlock call.
func (m *Machine) Trace() []uint64 { return m.trace[:] }

// New creates a machine around an existing kernel and process (no threads).
func New(k *kernel.Kernel, proc *kernel.Process) *Machine {
	return &Machine{
		Kernel: k,
		Proc:   proc,
		Sched:  NewRoundRobin(100, 0, 0),
	}
}

// NewLoaded creates a machine, loads the executable, and creates thread 0.
func NewLoaded(k *kernel.Kernel, exe *elfobj.File, argv, envp []string) (*Machine, error) {
	proc := kernel.NewProcess(k.FS)
	res, err := k.Load(proc, exe, argv, envp)
	if err != nil {
		return nil, err
	}
	m := New(k, proc)
	t := m.AddThread(isa.RegFile{PC: res.Entry})
	t.Regs.GPR[isa.RSP] = res.SP
	return m, nil
}

// Reset rewinds the machine to its freshly-constructed state around a new
// kernel and process, reusing the Machine allocation (the run harness's
// fast trial-reuse path). The decoded-block cache is dropped: a fresh
// address space restarts its generation clock, so stale (page, generation)
// keys from the previous run could otherwise collide with live ones.
func (m *Machine) Reset(k *kernel.Kernel, proc *kernel.Process) {
	m.Kernel = k
	m.Proc = proc
	m.Threads = m.Threads[:0]
	m.Sched = NewRoundRobin(100, 0, 0)
	m.Hooks = Hooks{}
	m.GlobalRetired = 0
	m.MaxInstructions = 0
	m.PauseDoesNotYield = false
	m.FaultInj = nil
	m.DisableBlockCache = false
	m.bcache = nil
	m.lastPN, m.lastPB = 0, nil
	m.stepDec = nil
	m.cacheCap = 0
	m.building = false
	m.Halted = false
	m.stopReq.Store(false)
	m.ExitStatus = 0
	m.FatalFault = nil
	m.lastTID, m.lastGranted, m.lastClipped, m.lastRan = 0, 0, 0, 0
}

// AddThread creates a new runnable thread with the given initial registers.
func (m *Machine) AddThread(regs isa.RegFile) *Thread {
	t := &Thread{TID: len(m.Threads), Regs: regs, Alive: true}
	m.Threads = append(m.Threads, t)
	return t
}

// AliveCount returns the number of runnable threads.
func (m *Machine) AliveCount() int {
	n := 0
	for _, t := range m.Threads {
		if t.Alive {
			n++
		}
	}
	return n
}

// RequestStop makes Run return at the next instruction boundary. Timing
// simulators use it to implement (PC, count) end conditions; a
// checkpointed run's wall-clock deadline calls it from a timer goroutine
// to trigger checkpoint-then-stop.
func (m *Machine) RequestStop() { m.stopReq.Store(true) }

// StopRequested reports whether a stop request is pending (Run clears it
// when it next starts). Checkpoint-capable run loops consult it after Run
// returns to distinguish an external interruption from a natural end.
func (m *Machine) StopRequested() bool { return m.stopReq.Load() }

// Run executes until no thread is runnable, the machine halts, RequestStop
// is called, or MaxInstructions is reached. It returns an error only for
// internal inconsistencies; guest faults are reported via thread state.
func (m *Machine) Run() error {
	m.stopReq.Store(false)
	for !m.Halted && !m.stopReq.Load() && m.AliveCount() > 0 {
		if m.MaxInstructions > 0 && m.GlobalRetired >= m.MaxInstructions {
			break
		}
		tid, quantum := m.Sched.Next(m)
		if tid < 0 {
			break
		}
		granted := quantum
		if m.MaxInstructions > 0 {
			if left := m.MaxInstructions - m.GlobalRetired; uint64(quantum) > left {
				quantum = int(left)
			}
		}
		ran := m.runThread(m.Threads[tid], quantum)
		m.Sched.Ran(tid, ran)
		m.lastTID, m.lastGranted, m.lastClipped, m.lastRan = tid, granted, quantum, ran
	}
	// A quantum the clip or a stop request cut short is still owed: the
	// next Run continues it, exactly as a run resumed from a checkpoint
	// taken here does, so splitting a run into segments never changes its
	// schedule.
	if rr, ok := m.Sched.(*RoundRobin); ok {
		if _, n := m.PendingQuantum(); n > 0 {
			rr.resid = n
		}
	}
	return nil
}

// PendingQuantum returns the unexecuted remainder of the scheduler quantum
// that was in flight when Run last stopped, with the thread it belongs to.
// It is non-zero only when the stop cut a quantum short from outside — the
// budget clip ran to its boundary, or a stop request landed mid-quantum. A
// thread that yielded or exited on its own owes nothing: an uninterrupted
// run would rotate past it too.
func (m *Machine) PendingQuantum() (tid, n int) {
	switch {
	case m.lastGranted <= m.lastRan:
		return m.lastTID, 0
	case m.stopReq.Load():
		return m.lastTID, m.lastGranted - m.lastRan
	case m.lastRan == m.lastClipped && m.lastGranted > m.lastClipped:
		return m.lastTID, m.lastGranted - m.lastClipped
	}
	return m.lastTID, 0
}

// exitThread marks t dead.
func (m *Machine) exitThread(t *Thread, status int) {
	if !t.Alive {
		return
	}
	t.Alive = false
	t.ExitStatus = status
}

// exitGroup terminates the whole process.
func (m *Machine) exitGroup(status int) {
	for _, t := range m.Threads {
		m.exitThread(t, status)
	}
	m.Halted = true
	m.ExitStatus = status
}

// fatalFault kills the process on an unhandled fault (SIGSEGV semantics).
func (m *Machine) fatalFault(t *Thread, f *mem.Fault) {
	t.Fault = f
	m.FatalFault = f
	m.exitGroup(139) // 128 + SIGSEGV
}

// Stdout returns the process's accumulated standard output.
func (m *Machine) Stdout() []byte { return m.Proc.Stdout }

// Stderr returns the process's accumulated standard error.
func (m *Machine) Stderr() []byte { return m.Proc.Stderr }

// DumpState formats a short human-readable machine state (for debugging).
func (m *Machine) DumpState() string {
	s := fmt.Sprintf("retired=%d halted=%v exit=%d\n", m.GlobalRetired, m.Halted, m.ExitStatus)
	for _, t := range m.Threads {
		s += fmt.Sprintf("  t%d alive=%v pc=%#x retired=%d\n", t.TID, t.Alive, t.Regs.PC, t.Retired)
	}
	return s
}
