// Package harness is the one place machine runs are assembled. The paper's
// tool-chain pushes the same machine state through five execution modes —
// logging, constrained replay, native ELFie execution, simulator feeding,
// and validation measurement — and every mode needs the same parts wired
// the same way: a program source, a kernel personality, a scheduler policy,
// an instruction budget, and (optionally) fault-injection arming. Before
// this package each mode assembled those parts by hand, with drift-prone
// duplicated scheduler literals; now a declarative Config composes one
// Session, and the quantum/seed defaults below are defined exactly once.
//
// A Session also supports Reset: rebuilding the machine around a fresh
// kernel and seed while reusing the executable and the pristine filesystem
// snapshot, state-for-state equal to a new session at that seed. The
// experiment grid resets one session across a cell's repeated runs.
package harness

import (
	"errors"
	"fmt"

	"elfie/internal/elfobj"
	"elfie/internal/fault"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// Scheduler quantum/seed defaults. This is the single definition site: raw
// vm.NewRoundRobin construction outside this package is rejected by the
// construction lint in internal/elflint/golint.
const (
	// DefaultQuantum is the deterministic round-robin quantum used by the
	// logger, the replayer's free-running mode, and every machine that
	// needs reproducible interleaving.
	DefaultQuantum = 100
	// NativeQuantum and NativeJitter model free-running ELFie execution
	// with threads pinned to dedicated cores: coarse jittering quanta let
	// threads drift apart between barriers, which is why unconstrained
	// ELFie simulations retire more instructions than constrained pinball
	// replay (the paper's Fig. 11).
	NativeQuantum = 1000
	NativeJitter  = 700
)

// SysStateDir is where SYSSTATE files are installed in the guest filesystem
// (the path compiled into converted ELFies by core.Convert).
const SysStateDir = "/sysstate"

// Mode names the execution mode a session serves. It selects nothing by
// itself — parts are chosen explicitly — but tags the session's typed run
// errors so every mode surfaces mid-run kernel failures the same way.
type Mode int

// Execution modes of the tool-chain.
const (
	// ModeNative: native ELFie (or plain program) execution.
	ModeNative Mode = iota
	// ModeLog: PinPlay region capture.
	ModeLog
	// ModeReplay: constrained replay of a pinball.
	ModeReplay
	// ModeSim: feeding a timing simulator (sniper, coresim, gem5sim).
	ModeSim
	// ModeMeasure: functional measurement (BBV profiling, perfle trials).
	ModeMeasure
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeLog:
		return "log"
	case ModeReplay:
		return "replay"
	case ModeSim:
		return "sim"
	case ModeMeasure:
		return "measure"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// SchedPolicy selects the session's scheduler.
type SchedPolicy int

// Scheduler policies.
const (
	// SchedAuto resolves to SchedJittered when Config.Jitter > 0, else
	// SchedDeterministic.
	SchedAuto SchedPolicy = iota
	// SchedDeterministic: fixed-quantum round-robin (DefaultQuantum), no
	// jitter — the logger's and profiler's reproducible interleaving.
	SchedDeterministic
	// SchedJittered: round-robin with DefaultQuantum and Config.Jitter,
	// seeded by the session seed — models OS-level run-to-run variation.
	SchedJittered
	// SchedNative: NativeQuantum/NativeJitter round-robin with PAUSE as a
	// pure timing hint — free-running threads pinned to dedicated cores,
	// the unconstrained ELFie simulation mode.
	SchedNative
	// SchedTrace: replay the pinball's recorded schedule exactly
	// (requires a Pinball source).
	SchedTrace
)

// Engine selects the execution core a session runs on: the chained fast
// path (the default) or the per-instruction reference interpreter, so the
// experiment grid can measure both through the same session plumbing
// instead of poking vm.Machine flags by hand.
type Engine int

// Execution cores.
const (
	// EngineChained: block cache with superblock chaining — the fast path.
	EngineChained Engine = iota
	// EngineInterp: per-instruction interpreter, no block cache.
	EngineInterp
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineChained:
		return "chained"
	case EngineInterp:
		return "interp"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// SysState is the installable system-state part: the sysstate.State of a
// converted region. It is declared structurally so the dependency points
// harness <- sysstate (package sysstate analyzes pinballs by replaying
// them, so it must be allowed to sit above the harness).
type SysState interface {
	Install(fs *kernel.FS, dir string)
}

// Config declares a session's parts. Exactly one program source (Exe or
// Pinball) must be set; every other part has a working zero value.
type Config struct {
	// Mode tags the session's typed run errors (see RunError).
	Mode Mode

	// Exe is a program source: a PVM executable (typically an ELFie),
	// loaded through the kernel loader with Argv/Envp.
	Exe *elfobj.File
	// Pinball is a program source: captured state mapped directly — the
	// pinball's memory image, brk, and one thread per captured context.
	Pinball *pinball.Pinball
	// Argv/Envp apply to the Exe source only.
	Argv []string
	Envp []string

	// FS is the guest filesystem (nil = empty). The session snapshots it
	// (after SysState installation) so Reset can rebuild pristine state.
	FS *kernel.FS
	// SysState, when non-nil, is installed into FS at SysStateDir before
	// the kernel is built — the SYSSTATE personality of converted ELFies.
	SysState SysState
	// Kernel, when non-nil, is used as-is and FS/SysState/Seed are
	// ignored — for callers (the replayer) that prepared kernel state
	// themselves. Such sessions are not resettable.
	Kernel *kernel.Kernel
	// Seed drives kernel construction (stack randomization, clock jitter)
	// and seeds jittered schedulers.
	Seed int64

	// Sched picks the scheduler policy; Jitter parameterizes
	// SchedJittered (and resolves SchedAuto).
	Sched  SchedPolicy
	Jitter int

	// Engine selects the execution-core variant (default EngineChained).
	// Applied on every build, so Reset preserves the selection.
	Engine Engine

	// Budget is the end condition: stop after this many retired
	// instructions (0 = unbounded).
	Budget uint64

	// Injector arms fault injection (fault.New(plan); nil is off). Share
	// one injector across sessions so rule budgets span a whole pipeline.
	// Arming is uniform: kernel rules and VM rules always arm together,
	// and a non-nil VM injector disables the decoded-block cache, so
	// injected faults are never masked by a fast path.
	Injector *fault.Injector
}

// Session is one composed machine run.
type Session struct {
	Machine *vm.Machine
	Kernel  *kernel.Kernel
	// Injector is the armed fault injector (nil when injection is off).
	Injector *fault.Injector
	// Cursor, when set by the caller (the replayer), is the session's
	// syscall-injection cursor; mid-run checkpoints serialize its
	// unconsumed tail so a resumed replay injects the remaining effects.
	Cursor *InjectCursor

	cfg    Config
	fsSnap *kernel.FS
	// budget is the session's effective instruction budget: cfg.Budget, or
	// the checkpoint's remaining budget when resuming one.
	budget uint64
}

// New composes a session from its parts.
func New(cfg Config) (*Session, error) {
	if (cfg.Exe == nil) == (cfg.Pinball == nil) {
		return nil, fmt.Errorf("harness: config needs exactly one program source (Exe or Pinball)")
	}
	if cfg.Sched == SchedTrace && cfg.Pinball == nil {
		return nil, fmt.Errorf("harness: SchedTrace needs a Pinball source")
	}
	s := &Session{cfg: cfg, Injector: cfg.Injector}
	var ck *pinball.CheckpointMeta
	if cfg.Pinball != nil {
		if ck = cfg.Pinball.Meta.Checkpoint; ck != nil {
			if err := cfg.Pinball.ValidateCheckpoint(); err != nil {
				return nil, err
			}
		}
	}
	k := cfg.Kernel
	if ck != nil && cfg.Pinball.FS != nil {
		// A live checkpoint carries the mid-run filesystem image its FD
		// table points into; that image is the truth, so the kernel is
		// rebuilt around it even when the caller supplied one.
		fs := kernel.RestoreFS(cfg.Pinball.FS)
		s.fsSnap = fs.Clone()
		k = kernel.New(fs, cfg.Seed)
	} else if k == nil {
		fs := cfg.FS
		if fs == nil {
			fs = kernel.NewFS()
		}
		if cfg.SysState != nil {
			cfg.SysState.Install(fs, SysStateDir)
		}
		s.fsSnap = fs.Clone()
		k = kernel.New(fs, cfg.Seed)
	}
	m, err := s.build(k, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	s.Machine, s.Kernel = m, k
	return s, nil
}

// Reset rebuilds the session around a fresh kernel seeded with seed: the
// pristine filesystem snapshot is re-cloned, the program re-loaded, hooks
// cleared, and the scheduler re-seeded — equivalent, state for state, to
// constructing a new session with the same Config at the new seed, but
// without re-serializing or re-parsing the program source.
func (s *Session) Reset(seed int64) error {
	if s.cfg.Kernel != nil {
		return fmt.Errorf("harness: session around a caller-provided kernel is not resettable")
	}
	k := kernel.New(s.fsSnap.Clone(), seed)
	if _, err := s.build(k, seed, s.Machine); err != nil {
		return err
	}
	s.Kernel = k
	return nil
}

// build assembles (or, when reuse is non-nil, rewinds) the machine around
// kernel k. The machine is only touched after the program source loaded
// successfully, so a failed build leaves a reused machine intact.
func (s *Session) build(k *kernel.Kernel, seed int64, reuse *vm.Machine) (*vm.Machine, error) {
	if s.Injector != nil {
		k.Fault = s.Injector
	}
	proc := kernel.NewProcess(k.FS)
	var entry isa.RegFile
	haveEntry := false
	if exe := s.cfg.Exe; exe != nil {
		res, err := k.Load(proc, exe, s.cfg.Argv, s.cfg.Envp)
		if err != nil {
			return nil, err
		}
		entry = isa.RegFile{PC: res.Entry}
		entry.GPR[isa.RSP] = res.SP
		haveEntry = true
	} else {
		pb := s.cfg.Pinball
		for _, pg := range pb.Pages {
			prot := pg.Prot
			if prot == 0 {
				prot = mem.ProtRW
			}
			proc.AS.Map(pg.Addr, uint64(len(pg.Data)), prot)
			proc.AS.WriteNoFault(pg.Addr, pg.Data)
		}
		proc.BrkStart = pb.Meta.BrkStart
		proc.Brk = pb.Meta.Brk
		if ck := pb.Meta.Checkpoint; ck != nil {
			// Resume: restore the kernel-side process state and rebase the
			// virtual clock so guest time continues from the checkpoint
			// (the resumed machine restarts its icount at zero).
			proc.RestoreState(ck.Proc)
			k.Clock = kernel.Clock{
				BaseNanos:     ck.ClockBase - uint64(float64(ck.ClockIcount)*ck.ClockNanosPerInstr),
				NanosPerInstr: ck.ClockNanosPerInstr,
				IcountBase:    ck.ClockIcount,
			}
		}
	}

	m := reuse
	if m == nil {
		m = vm.New(k, proc)
	} else {
		m.Reset(k, proc)
	}
	if haveEntry {
		m.AddThread(entry)
	} else {
		for _, regs := range s.cfg.Pinball.Regs {
			m.AddThread(regs)
		}
	}
	if s.cfg.Engine == EngineInterp {
		m.DisableBlockCache = true
	}
	m.FaultInj = s.Injector
	pol := s.resolveSched()
	m.Sched = s.scheduler(pol, seed)
	m.PauseDoesNotYield = pol == SchedNative
	s.budget = s.cfg.Budget
	if pb := s.cfg.Pinball; pb != nil && pb.Meta.Checkpoint != nil {
		s.resumeCheckpoint(m, k, pb.Meta.Checkpoint)
	}
	m.MaxInstructions = s.budget
	return m, nil
}

// resumeCheckpoint applies the machine-level state of a live checkpoint:
// per-thread liveness and perf counters, the serialized scheduler, the
// PAUSE semantics, and the remaining instruction budget. Per-thread
// retired counts restart at zero — RegionLength was rewritten to the
// remainders when the checkpoint was taken, and RestorePerf re-arms the
// counters at their absolute counts via modular bases.
func (s *Session) resumeCheckpoint(m *vm.Machine, k *kernel.Kernel, ck *pinball.CheckpointMeta) {
	for i, st := range ck.Threads {
		if i >= len(m.Threads) {
			break
		}
		t := m.Threads[i]
		t.Alive = st.Alive
		t.ExitStatus = st.ExitStatus
		t.RestorePerf(st.Perf)
	}
	switch ck.Sched.Kind {
	case pinball.SchedKindRR:
		m.Sched = vm.RestoreRoundRobin(*ck.Sched.RR)
	case pinball.SchedKindTrace:
		m.Sched = &vm.TraceScheduler{Trace: s.cfg.Pinball.Sched}
	}
	m.PauseDoesNotYield = ck.Sched.PauseDoesNotYield
	if s.budget == 0 {
		s.budget = ck.BudgetRemaining
	}
}

// resolveSched resolves SchedAuto from the config.
func (s *Session) resolveSched() SchedPolicy {
	if s.cfg.Sched != SchedAuto {
		return s.cfg.Sched
	}
	if s.cfg.Jitter > 0 {
		return SchedJittered
	}
	return SchedDeterministic
}

// scheduler builds the scheduler for one (re)build; jittered policies take
// fresh rng state from seed, so Reset runs are independent trials.
func (s *Session) scheduler(pol SchedPolicy, seed int64) vm.Scheduler {
	switch pol {
	case SchedJittered:
		return vm.NewRoundRobin(DefaultQuantum, s.cfg.Jitter, seed)
	case SchedNative:
		return vm.NewRoundRobin(NativeQuantum, NativeJitter, seed)
	case SchedTrace:
		return &vm.TraceScheduler{Trace: s.cfg.Pinball.Sched}
	default:
		return vm.NewRoundRobin(DefaultQuantum, 0, 0)
	}
}

// Icount returns the session's position in its program's instruction
// stream: the machine's GlobalRetired, which restarts at zero in a
// session resumed from a checkpoint, plus the count its pinball source
// starts at (RegionStartIcount — for a checkpoint, where it was taken).
func (s *Session) Icount() uint64 {
	n := s.Machine.GlobalRetired
	if pb := s.cfg.Pinball; pb != nil {
		n += pb.Meta.RegionStartIcount
	}
	return n
}

// Run executes the machine, wrapping any mid-run error in a *RunError
// tagged with the session's mode — the uniform typed error every execution
// mode surfaces.
func (s *Session) Run() error {
	return WrapRun(s.cfg.Mode, s.Machine.Run())
}

// ErrRun matches (errors.Is) the typed mid-run error of every harness
// execution mode.
var ErrRun = errors.New("harness: run failed")

// RunError is a mid-run machine/kernel error tagged with its execution
// mode. All five modes wrap vm.Machine.Run failures in it, so callers
// classify them with errors.Is(err, ErrRun) regardless of mode.
type RunError struct {
	Mode Mode
	Err  error
}

// Error implements error.
func (e *RunError) Error() string { return fmt.Sprintf("harness: %s run: %v", e.Mode, e.Err) }

// Unwrap exposes the underlying machine error.
func (e *RunError) Unwrap() error { return e.Err }

// Is matches ErrRun.
func (e *RunError) Is(target error) bool { return target == ErrRun }

// WrapRun tags a mid-run machine error with a mode, for run paths that
// drive a caller-provided machine rather than a full session. Already-
// tagged errors pass through unchanged.
func WrapRun(mode Mode, err error) error {
	if err == nil {
		return nil
	}
	var re *RunError
	if errors.As(err, &re) {
		return err
	}
	return &RunError{Mode: mode, Err: err}
}
