package harness

import (
	"errors"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/fault"
	"elfie/internal/kernel"
	"elfie/internal/vm"
)

const exitProgram = `
	.global _start
_start:	movi r8, 0
loop:	addi r8, r8, 1
	cmpi r8, 1000
	jnz  loop
	movi r0, 231
	movi r1, 7
	syscall
`

func TestConfigNeedsExactlyOneSource(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no source accepted")
	}
	exe, err := asm.Program(exitProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Exe: exe, Sched: SchedTrace}); err == nil {
		t.Error("SchedTrace without a pinball accepted")
	}
}

func TestNativeRunAndBudget(t *testing.T) {
	exe, err := asm.Program(exitProgram)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Machine.ExitStatus != 7 {
		t.Errorf("exit = %d, want 7", s.Machine.ExitStatus)
	}

	// Budget is the end condition: a tight budget stops before the exit.
	s2, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 1, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if s2.Machine.Halted && s2.Machine.ExitStatus == 7 {
		t.Error("budgeted run still reached the exit syscall")
	}
}

func TestFaultArmingUniform(t *testing.T) {
	exe, err := asm.Program(exitProgram)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{{Point: fault.SyscallError}}}
	s, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Injector: fault.New(plan)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Injector == nil {
		t.Fatal("plan did not arm an injector")
	}
	if s.Kernel.Fault != s.Injector || s.Machine.FaultInj != s.Injector {
		t.Error("kernel and VM injection arming diverge")
	}

	// No plan: nothing armed, fast path eligible.
	s2, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Injector != nil || s2.Machine.FaultInj != nil || s2.Kernel.Fault != nil {
		t.Error("unarmed session carries an injector")
	}

	// A caller-owned injector is shared, not replaced.
	inj := fault.New(plan)
	s3, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Injector != inj || s3.Machine.FaultInj != inj || s3.Kernel.Fault != inj {
		t.Error("caller-owned injector not armed everywhere")
	}
}

func TestResetMatchesFreshSession(t *testing.T) {
	exe, err := asm.Program(exitProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 5, Jitter: 10}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	first := s.Machine.GlobalRetired

	// Reset to a different seed, run, then reset back to the original: the
	// rewound machine must reproduce the original run exactly.
	if err := s.Reset(99); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(5); err != nil {
		t.Fatal(err)
	}
	if len(s.Machine.Threads) != 1 || s.Machine.GlobalRetired != 0 {
		t.Fatalf("reset left stale run state: threads=%d retired=%d",
			len(s.Machine.Threads), s.Machine.GlobalRetired)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Machine.GlobalRetired != first || s.Machine.ExitStatus != 7 {
		t.Errorf("reset run diverged: retired %d vs %d, exit %d",
			s.Machine.GlobalRetired, first, s.Machine.ExitStatus)
	}

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if fresh.Machine.GlobalRetired != s.Machine.GlobalRetired ||
		fresh.Machine.Threads[0].Regs.GPR != s.Machine.Threads[0].Regs.GPR {
		t.Error("reset session diverges from a fresh session at the same seed")
	}
}

func TestResetRejectsCallerKernel(t *testing.T) {
	exe, err := asm.Program(exitProgram)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Exe: exe, Argv: []string{"x"}, Kernel: kernel.New(kernel.NewFS(), 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(2); err == nil {
		t.Error("caller-kernel session reset accepted")
	}
}

func TestRunErrorTyping(t *testing.T) {
	base := errors.New("boom")
	err := WrapRun(ModeSim, base)
	if !errors.Is(err, ErrRun) {
		t.Error("wrapped error does not match ErrRun")
	}
	if !errors.Is(err, base) {
		t.Error("wrapped error lost its cause")
	}
	var re *RunError
	if !errors.As(err, &re) || re.Mode != ModeSim {
		t.Errorf("wrong typed error: %v", err)
	}
	// Idempotent: re-wrapping keeps the original mode tag.
	again := WrapRun(ModeLog, err)
	if again != err {
		t.Error("already-tagged error re-wrapped")
	}
	if WrapRun(ModeLog, nil) != nil {
		t.Error("nil error wrapped")
	}
}

func TestSchedulerPolicies(t *testing.T) {
	exe, err := asm.Program(exitProgram)
	if err != nil {
		t.Fatal(err)
	}
	native, err := New(Config{Exe: exe, Argv: []string{"x"}, Sched: SchedNative, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !native.Machine.PauseDoesNotYield {
		t.Error("SchedNative must make PAUSE a pure timing hint")
	}
	det, err := New(Config{Exe: exe, Argv: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if det.Machine.PauseDoesNotYield {
		t.Error("deterministic session must let PAUSE yield")
	}
	if _, ok := det.Machine.Sched.(*vm.RoundRobin); !ok {
		t.Errorf("deterministic session scheduler is %T", det.Machine.Sched)
	}
}
