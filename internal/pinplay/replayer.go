package pinplay

import (
	"errors"
	"fmt"

	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pin"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// ReplayOptions controls constrained replay.
type ReplayOptions struct {
	// Injection enables system-call side-effect injection and thread-order
	// enforcement. Setting it false is -replay:injection 0: the pinball
	// executes against live kernel state with a free-running scheduler,
	// mimicking an ELFie run while still under the replayer (the paper's
	// ELFie-debugging aid).
	Injection bool
	// SchedSeed/SchedJitter configure the free-running scheduler used when
	// Injection is off.
	SchedSeed   int64
	SchedJitter int
	// Observe, when non-nil, is called for every system call satisfied
	// from the log during injected replay, before its effects are applied.
	// Replay-based analyses (the sysstate tool) use it to watch the
	// region's system-call behaviour with full access to guest memory.
	Observe func(t *vm.Thread, e *pinball.SyscallEffect, m *vm.Machine)
	// BeforeRun, when non-nil, runs after the replay machine is fully set
	// up but before execution starts — the attachment point for timing
	// simulators and other instrumentation over a replay.
	BeforeRun func(m *vm.Machine)
	// Injector, when non-nil, arms seeded fault injection on the replay:
	// its kernel rules apply to the replay kernel and its VM rules to the
	// replay machine (see harness.Config.Injector).
	Injector *fault.Injector
	// Ckpt, when non-nil, runs the replay through the checkpointing run
	// loop: periodic mid-run checkpoints per Ckpt.Every, plus a final one
	// when Ckpt.Budget, Ckpt.Deadline or a RequestStop interrupts the run
	// (ReplayResult.Interrupted).
	Ckpt *harness.CkptOptions
}

// ReplayResult reports the outcome of a replay.
type ReplayResult struct {
	Machine *vm.Machine
	// PerThread is each thread's retired count during the replay.
	PerThread []uint64
	// Completed reports whether every recorded thread reached its recorded
	// instruction count.
	Completed bool
	// Diverged is set when a system call site did not match the log, or an
	// unexpected fault occurred during injected replay.
	Diverged bool
	// DivergeReason explains the first divergence in one line (it is
	// Divergence.String(); kept for callers that only need text).
	DivergeReason string
	// Divergence is the structured report of the first divergence.
	Divergence *DivergenceReport
	// InjectedSyscalls counts calls satisfied from the log.
	InjectedSyscalls int
	// Interrupted reports that the attempt's bounds (ReplayOptions.Ckpt)
	// or a RequestStop cut the run short; with ReplayOptions.Ckpt set, the
	// final checkpoint was saved before Replay returned.
	Interrupted bool
}

// maxFactor bounds a free-running (injection off) replay at this multiple
// of the recorded region length.
const maxFactor = 4

// Replay re-executes a pinball region. With injection on, system calls are
// skipped and their recorded side effects injected, and the recorded thread
// schedule is enforced, so the replay is constrained to the captured
// behaviour. The replay machine — pinball memory image mapped, one thread
// per captured context — is composed by the run harness.
func Replay(pb *pinball.Pinball, k *kernel.Kernel, opts ReplayOptions) (*ReplayResult, error) {
	if len(pb.Regs) == 0 {
		return nil, fmt.Errorf("pinplay: pinball has no threads")
	}
	cfg := harness.Config{
		Mode:     harness.ModeReplay,
		Pinball:  pb,
		Kernel:   k,
		Injector: opts.Injector,
	}
	if opts.Injection {
		// Constrained replay: recorded thread order, ends exactly at the
		// recorded budget.
		cfg.Sched = harness.SchedTrace
		cfg.Budget = pb.Meta.TotalInstructions
	} else {
		cfg.Sched = harness.SchedJittered
		cfg.Jitter = opts.SchedJitter
		cfg.Seed = opts.SchedSeed
		cfg.Budget = pb.Meta.TotalInstructions * maxFactor
	}
	s, err := harness.New(cfg)
	if err != nil {
		return nil, err
	}
	m := s.Machine
	res := &ReplayResult{Machine: m}

	// diverge records the first divergence; later ones are ignored, as the
	// machine state after the first is already off the logged trajectory.
	diverge := func(rep *DivergenceReport) {
		if !res.Diverged {
			res.Diverged = true
			res.Divergence = rep
			res.DivergeReason = rep.String()
		}
	}

	if opts.Injection {
		// Cursor over the logged effects, in per-thread program order. The
		// session keeps it so a mid-run checkpoint serializes the
		// unconsumed tail.
		cursor := harness.NewInjectCursor(pb.Syscalls)
		s.Cursor = cursor
		inject := &pin.Tool{Name: "pinplay-replayer"}
		inject.SyscallFilter = func(t *vm.Thread, num uint64) (kernel.Result, bool) {
			e, ok := cursor.Next(t.TID)
			if !ok {
				rep := &DivergenceReport{
					Kind: DivergeUnloggedSyscall, TID: t.TID, PC: t.Regs.PC,
					Retired: t.Retired, GlobalRetired: m.GlobalRetired,
					ActualNum: num, ActualSyscall: kernel.SyscallName(num),
				}
				diverge(rep)
				return kernel.Result{Ret: ^uint64(kernel.ENOSYS) + 1}, true
			}
			if e.Num != num {
				rep := &DivergenceReport{
					Kind: DivergeSyscallMismatch, TID: t.TID, PC: t.Regs.PC,
					Retired: t.Retired, GlobalRetired: m.GlobalRetired,
				}
				rep.syscallIdentity(e.Num, num)
				// Diff the syscall argument registers against the logged
				// call's arguments.
				for i := 0; i < len(e.Args); i++ {
					reg := isa.R1 + isa.Reg(i)
					if got := t.Regs.GPR[reg]; got != e.Args[i] {
						rep.RegDiff = append(rep.RegDiff, RegDelta{
							Name: isa.RegName(reg), Expected: e.Args[i], Actual: got,
						})
					}
				}
				diverge(rep)
			}
			if opts.Observe != nil {
				opts.Observe(t, e, m)
			}
			if e.Executed {
				return kernel.Result{}, false // clone/exit re-execute natively
			}
			// Inject side effects.
			for _, w := range e.MemWrites {
				m.Proc.AS.WriteNoFault(w.Addr, w.Data)
			}
			if e.FSBase != nil {
				t.Regs.FSBase = *e.FSBase
			}
			if e.GSBase != nil {
				t.Regs.GSBase = *e.GSBase
			}
			res.InjectedSyscalls++
			return kernel.Result{Ret: e.Ret}, true
		}
		if opts.Observe == nil {
			// Inline injection fast path: a logged entry that is a pure
			// return — matching number, not re-executed, no memory or
			// segment effects — retires inside a block chain without the
			// full state spill. Anything else is left unconsumed (Peek,
			// not Next) and declines, so the filter above re-runs the call
			// with precise spilled state and full divergence reporting.
			inject.SyscallFast = func(t *vm.Thread, num uint64) (uint64, bool) {
				e, ok := cursor.Peek(t.TID)
				if !ok || e.Num != num || e.Executed ||
					len(e.MemWrites) != 0 || e.FSBase != nil || e.GSBase != nil {
					return 0, false
				}
				cursor.Next(t.TID)
				res.InjectedSyscalls++
				return e.Ret, true
			}
		}
		inject.OnFault = func(t *vm.Thread, f *mem.Fault) bool {
			diverge(&DivergenceReport{
				Kind: DivergeFault, TID: t.TID, PC: t.Regs.PC,
				Retired: t.Retired, GlobalRetired: m.GlobalRetired, Fault: f,
			})
			return false
		}
		pin.NewEngine(m).Attach(inject)
	}

	if opts.BeforeRun != nil {
		opts.BeforeRun(m)
	}
	var runErr error
	if opts.Ckpt != nil {
		runErr = s.RunCheckpointed(*opts.Ckpt)
	} else {
		runErr = s.Run()
	}
	if errors.Is(runErr, harness.ErrInterrupted) {
		res.Interrupted = true
	} else if runErr != nil {
		return nil, runErr
	}

	res.PerThread = make([]uint64, len(m.Threads))
	res.Completed = true
	for i, t := range m.Threads {
		res.PerThread[i] = t.Retired
		if i < len(pb.Meta.RegionLength) && t.Retired < pb.Meta.RegionLength[i] {
			res.Completed = false
		}
	}
	if m.FatalFault != nil && !res.Diverged {
		rep := &DivergenceReport{
			Kind: DivergeFault, GlobalRetired: m.GlobalRetired, Fault: m.FatalFault,
		}
		for _, t := range m.Threads {
			if t.Fault == m.FatalFault {
				rep.TID, rep.PC, rep.Retired = t.TID, t.Regs.PC, t.Retired
			}
		}
		diverge(rep)
	}
	return res, nil
}
