package pinball

import (
	"fmt"

	"elfie/internal/kernel"
	"elfie/internal/vm"
)

// A live checkpoint (format version 3) is an ordinary pinball — memory
// image, registers, remaining syscall-injection log, remaining schedule —
// plus a CheckpointMeta block carrying the state a region-start pinball
// never needs: which threads are dead, armed perf counters, the virtual
// clock phase, the remaining instruction budget, the scheduler's PRNG, and
// the kernel-side process state (FD table, brk, consumed stdin) together
// with the filesystem image those descriptors point into (<name>.fs).
//
// Resuming a checkpoint through harness.Config{Pinball: ...} therefore
// continues the original run bit-identically: the same effects inject at
// the same per-thread call sites, the schedule picks up where it stopped,
// perf counters overflow at their original absolute counts, and the clock
// reads the same virtual nanoseconds the uninterrupted run would have.

// ThreadState is the per-thread machine state beyond the register file.
type ThreadState struct {
	Alive      bool                  `json:"alive"`
	ExitStatus int                   `json:"exit_status,omitempty"`
	Retired    uint64                `json:"retired"`
	Perf       []vm.PerfCounterState `json:"perf,omitempty"`
}

// Scheduler kinds recorded in a checkpoint.
const (
	SchedKindRR    = "rr"    // jittered round-robin, resumable via vm.RRState
	SchedKindTrace = "trace" // constrained replay; the .race file is the state
)

// SchedState records the scheduler mid-run so a resume continues the same
// interleaving. For a trace scheduler the remaining records live in the
// .race file and RR is nil.
type SchedState struct {
	Kind string      `json:"kind"`
	RR   *vm.RRState `json:"rr,omitempty"`
	// PendingTID/PendingN re-grant the unexecuted remainder of the quantum
	// that was in flight when the run was interrupted (vm.PendingQuantum),
	// so the resumed schedule rotates identically. For the trace scheduler
	// the remainder is already folded into the first .race record.
	PendingTID int `json:"pending_tid,omitempty"`
	PendingN   int `json:"pending_n,omitempty"`
	// PauseDoesNotYield preserves the machine's PAUSE semantics (set for
	// free-running native-style schedules).
	PauseDoesNotYield bool `json:"pause_no_yield,omitempty"`
}

// CheckpointMeta is the machine and kernel state of a live checkpoint.
type CheckpointMeta struct {
	// Origin names the pinball or executable this run started from.
	Origin string `json:"origin,omitempty"`
	// GlobalRetired is the machine's aggregate retired count at the
	// checkpoint, relative to this run's start.
	GlobalRetired uint64 `json:"global_retired"`
	// Threads holds per-thread state, indexed by TID (parallel to the
	// register files).
	Threads []ThreadState `json:"threads"`
	// ClockBase/ClockNanosPerInstr rebase the virtual clock: the resumed
	// machine restarts its icount at zero, so the base absorbs the time the
	// original run had already accumulated (jitter included).
	ClockBase          uint64  `json:"clock_base"`
	ClockNanosPerInstr float64 `json:"clock_nanos_per_instr"`
	// ClockIcount is the instruction count the clock had reached at the
	// checkpoint (kernel.Clock.IcountBase plus GlobalRetired). Resume
	// computes time from it, so the rebased clock reads exactly what the
	// uninterrupted run's would: rebasing by ClockBase alone rounds each
	// later reading down once more. 0 in checkpoints that predate it.
	ClockIcount uint64 `json:"clock_icount,omitempty"`
	// BudgetRemaining is how many more instructions the interrupted run was
	// allowed to retire (0 = unbounded).
	BudgetRemaining uint64 `json:"budget_remaining,omitempty"`
	// Sched resumes the scheduler.
	Sched SchedState `json:"sched"`
	// Proc is the kernel-side process state (FD table, brk, stdio).
	Proc kernel.ProcState `json:"proc"`
}

// ValidateCheckpoint checks the internal invariants of a checkpoint
// pinball, beyond the per-file CRCs the manifest already enforced. A nil
// error means the checkpoint is structurally safe to resume; elflint and
// `elfiestore verify` call this so rotten checkpoints are rejected before a
// resume trusts them.
func (p *Pinball) ValidateCheckpoint() error {
	ck := p.Meta.Checkpoint
	if ck == nil {
		return nil
	}
	if len(ck.Threads) != p.Meta.NumThreads {
		return fmt.Errorf("%w: checkpoint records %d threads, global.log declares %d",
			ErrCorrupt, len(ck.Threads), p.Meta.NumThreads)
	}
	var sum uint64
	alive := 0
	for tid, t := range ck.Threads {
		sum += t.Retired
		if t.Alive {
			alive++
		}
		for _, pc := range t.Perf {
			if pc.Period == 0 {
				return fmt.Errorf("%w: checkpoint thread %d has a zero-period perf counter",
					ErrCorrupt, tid)
			}
		}
	}
	if sum != ck.GlobalRetired {
		return fmt.Errorf("%w: checkpoint per-thread retired counts sum to %d, global is %d",
			ErrCorrupt, sum, ck.GlobalRetired)
	}
	if alive == 0 {
		return fmt.Errorf("%w: checkpoint has no alive thread (a finished run is not resumable)",
			ErrCorrupt)
	}
	switch ck.Sched.Kind {
	case SchedKindRR:
		if ck.Sched.RR == nil {
			return fmt.Errorf("%w: checkpoint scheduler kind %q without rr state",
				ErrCorrupt, ck.Sched.Kind)
		}
		if ck.Sched.RR.Quantum <= 0 {
			return fmt.Errorf("%w: checkpoint rr scheduler has non-positive quantum %d",
				ErrCorrupt, ck.Sched.RR.Quantum)
		}
	case SchedKindTrace:
		if ck.Sched.RR != nil {
			return fmt.Errorf("%w: checkpoint scheduler kind %q carries rr state",
				ErrCorrupt, ck.Sched.Kind)
		}
	default:
		return fmt.Errorf("%w: checkpoint scheduler kind %q unknown", ErrCorrupt, ck.Sched.Kind)
	}
	if ck.ClockNanosPerInstr <= 0 {
		return fmt.Errorf("%w: checkpoint clock rate %v not positive",
			ErrCorrupt, ck.ClockNanosPerInstr)
	}
	if ck.Proc.Brk < ck.Proc.BrkStart {
		return fmt.Errorf("%w: checkpoint brk %#x below brk start %#x",
			ErrCorrupt, ck.Proc.Brk, ck.Proc.BrkStart)
	}
	if ck.Proc.StdinOff < 0 || ck.Proc.StdinOff > len(ck.Proc.Stdin) {
		return fmt.Errorf("%w: checkpoint stdin offset %d outside stdin of %d bytes",
			ErrCorrupt, ck.Proc.StdinOff, len(ck.Proc.Stdin))
	}
	seen := make(map[int]bool, len(ck.Proc.FDs))
	for _, fd := range ck.Proc.FDs {
		if fd.FD < 0 {
			return fmt.Errorf("%w: checkpoint FD table has negative descriptor %d",
				ErrCorrupt, fd.FD)
		}
		if seen[fd.FD] {
			return fmt.Errorf("%w: checkpoint FD table repeats descriptor %d",
				ErrCorrupt, fd.FD)
		}
		seen[fd.FD] = true
		if fd.HasFile {
			if _, ok := p.FS[fd.Path]; !ok {
				return fmt.Errorf("%w: checkpoint FD %d references %q, absent from the .fs image",
					ErrCorrupt, fd.FD, fd.Path)
			}
		}
	}
	return nil
}
