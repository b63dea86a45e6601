package harness

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"elfie/internal/asm"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// fileSumProgram opens a file, reads it 8 bytes at a time accumulating a
// checksum, writes a marker to stdout per chunk, and exits with the
// checksum — kernel state (FD offset, consumed file, emitted stdout)
// threads through every loop iteration.
const fileSumProgram = `
	.text
	.global _start
_start:
	movi r0, 2          # open("/input.dat")
	limm r1, fname
	movi r2, 0
	syscall
	mov  r10, r0        # fd
	movi r9, 0
loop:
	movi r0, 0          # read(fd, buf, 8)
	mov  r1, r10
	limm r2, buf
	movi r3, 8
	syscall
	cmpi r0, 8
	jnz  done
	limm r2, buf
	ld.q r3, [r2]
	add  r9, r9, r3
	movi r0, 1          # write(1, mark, 1)
	movi r1, 1
	limm r2, mark
	movi r3, 1
	syscall
	jmp  loop
done:
	mov  r1, r9
	andi r1, r1, 255
	movi r0, 231        # exit_group(sum & 255)
	syscall
	.data
fname:	.asciz "/input.dat"
mark:	.asciz "."
buf:	.space 8
`

// twoThreadProgram clones a worker and races it over shared memory — the
// jittered-scheduler workload for native checkpoint bit-identity.
const twoThreadProgram = `
	.text
	.global _start
_start:
	movi r0, 56         # clone
	movi r1, 0
	limm r2, stk1+8192
	limm r3, worker
	syscall
	movi r8, 0
	limm r12, shared
mloop:
	movi r7, 1
	xadd r7, [r12]
	addi r8, r8, 1
	cmpi r8, 3000
	jnz  mloop
	movi r0, 60
	movi r1, 0
	syscall
worker:
	limm r12, shared
	movi r8, 0
wloop:
	ld.q r7, [r12]
	add  r9, r9, r7
	addi r8, r8, 1
	cmpi r8, 4000
	jnz  wloop
	movi r0, 60
	movi r1, 0
	syscall
	.data
shared:	.quad 0
	.bss
stk1:	.space 8192
`

func inputFS(t *testing.T) *kernel.FS {
	t.Helper()
	fs := kernel.NewFS()
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	fs.WriteFile("/input.dat", data)
	return fs
}

// roundTripCkpt serializes a checkpoint to its file set and loads it back,
// verifying it is a valid pinball.
func roundTripCkpt(t *testing.T, ck *pinball.Pinball) *pinball.Pinball {
	t.Helper()
	files, err := ck.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := pinball.ReadFileSet(ck.Name, files, pinball.ReadOptions{})
	if err != nil {
		t.Fatalf("checkpoint does not load back: %v", err)
	}
	if err := loaded.ValidateCheckpoint(); err != nil {
		t.Fatalf("checkpoint fails validation: %v", err)
	}
	return loaded
}

// TestNativeCheckpointPreservesKernelState interrupts a native run in the
// middle of a read loop, checkpoints, and resumes from the serialized
// checkpoint on a session with an empty filesystem config: the open FD,
// its offset, the consumed stdin/stdout, and the file contents must all
// come from the checkpoint.
func TestNativeCheckpointPreservesKernelState(t *testing.T) {
	exe, err := asm.Program(fileSumProgram)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, FS: inputFS(t), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !ref.Machine.Halted {
		t.Fatal("reference run did not finish")
	}
	wantExit := ref.Machine.ExitStatus
	wantOut := append([]byte(nil), ref.Machine.Proc.Stdout...)
	wantTotal := ref.Machine.GlobalRetired
	if len(wantOut) == 0 {
		t.Fatal("reference run wrote no stdout")
	}

	s, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, FS: inputFS(t), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const stopAt = 700
	var count uint64
	s.Machine.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
		count++
		if count == stopAt {
			s.Machine.RequestStop()
		}
	}
	var ckpt *pinball.Pinball
	err = s.RunCheckpointed(CkptOptions{
		Name: "native.ckpt",
		Save: func(p *pinball.Pinball) error { ckpt = p; return nil },
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if ckpt == nil {
		t.Fatal("no checkpoint saved")
	}
	if s.Machine.GlobalRetired != stopAt {
		t.Fatalf("interrupted at %d, want %d", s.Machine.GlobalRetired, stopAt)
	}

	loaded := roundTripCkpt(t, ckpt)
	// Deliberately no FS in the resume config: everything must come from
	// the checkpoint's own filesystem image and FD table.
	resumed, err := New(Config{Mode: ModeNative, Pinball: loaded, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed.Machine.Halted {
		t.Fatal("resumed run did not finish")
	}
	if resumed.Machine.ExitStatus != wantExit {
		t.Errorf("resumed exit = %d, uninterrupted = %d (FD/file state lost)",
			resumed.Machine.ExitStatus, wantExit)
	}
	if !bytes.Equal(resumed.Machine.Proc.Stdout, wantOut) {
		t.Errorf("resumed stdout %q, uninterrupted %q", resumed.Machine.Proc.Stdout, wantOut)
	}
	if got := stopAt + resumed.Machine.GlobalRetired; got != wantTotal {
		t.Errorf("retired %d+%d = %d, uninterrupted %d",
			stopAt, resumed.Machine.GlobalRetired, got, wantTotal)
	}
}

// TestJitteredCheckpointBitIdentity is the native-mode bit-identity guard:
// a two-thread run under the seeded jittered scheduler, interrupted at an
// arbitrary instruction, checkpointed (PRNG state and in-flight quantum
// included), and resumed retires the identical (tid, pc) stream as the
// same run uninterrupted.
func TestJitteredCheckpointBitIdentity(t *testing.T) {
	exe, err := asm.Program(twoThreadProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 21, Jitter: 37}

	record := func(s *Session, out *[]uint64, stopAt uint64) {
		s.Machine.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
			*out = append(*out, uint64(th.TID)<<48|r.PC)
			if stopAt > 0 && uint64(len(*out)) == stopAt {
				s.Machine.RequestStop()
			}
		}
	}

	var ref []uint64
	refS, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	record(refS, &ref, 0)
	if err := refS.Run(); err != nil {
		t.Fatal(err)
	}
	if refS.Machine.AliveCount() != 0 {
		t.Fatal("reference did not finish")
	}

	for _, stopAt := range []uint64{3, 1009, 4999, 9001} {
		var leg1 []uint64
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		record(s, &leg1, stopAt)
		var ckpt *pinball.Pinball
		err = s.RunCheckpointed(CkptOptions{
			Name: "mt.ckpt",
			Save: func(p *pinball.Pinball) error { ckpt = p; return nil },
		})
		if !errors.Is(err, ErrInterrupted) || ckpt == nil {
			t.Fatalf("stop at %d: err=%v ckpt=%v", stopAt, err, ckpt != nil)
		}

		loaded := roundTripCkpt(t, ckpt)
		var leg2 []uint64
		resumed, err := New(Config{Mode: ModeNative, Pinball: loaded, Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		record(resumed, &leg2, 0)
		if err := resumed.Run(); err != nil {
			t.Fatal(err)
		}
		if resumed.Machine.AliveCount() != 0 {
			t.Fatalf("stop at %d: resumed run did not finish", stopAt)
		}

		combined := append(append([]uint64(nil), leg1...), leg2...)
		if len(combined) != len(ref) {
			t.Fatalf("stop at %d: stream %d vs %d", stopAt, len(combined), len(ref))
		}
		for i := range ref {
			if combined[i] != ref[i] {
				t.Fatalf("stop at %d: streams diverge at instruction %d (tid %d pc %#x vs tid %d pc %#x)",
					stopAt, i, combined[i]>>48, combined[i]&(1<<48-1), ref[i]>>48, ref[i]&(1<<48-1))
			}
		}
	}
}

// TestSegmentedRunKeepsSchedule: a live two-thread run that RunCheckpointed
// splits into segments retires the same (tid, pc) stream as the same run
// uninterrupted. A segment's clip ends the quantum in flight; the remainder
// stays owed to the same thread, as it does for a run resumed from the
// segment's checkpoint, instead of rotating to the next thread.
func TestSegmentedRunKeepsSchedule(t *testing.T) {
	exe, err := asm.Program(twoThreadProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 21, Jitter: 37}
	run := func(every uint64) (stream []uint64, saves int) {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Machine.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
			stream = append(stream, uint64(th.TID)<<48|r.PC)
		}
		err = s.RunCheckpointed(CkptOptions{
			Every: every,
			Save:  func(*pinball.Pinball) error { saves++; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.Machine.AliveCount() != 0 {
			t.Fatalf("every=%d: run did not finish", every)
		}
		return stream, saves
	}
	ref, _ := run(0)
	seg, saves := run(4999)
	if saves == 0 {
		t.Fatal("the segmented run took no checkpoint")
	}
	for i := range min(len(ref), len(seg)) {
		if seg[i] != ref[i] {
			t.Fatalf("streams diverge at instruction %d (tid %d pc %#x vs tid %d pc %#x)",
				i, seg[i]>>48, seg[i]&(1<<48-1), ref[i]>>48, ref[i]&(1<<48-1))
		}
	}
	if len(seg) != len(ref) {
		t.Fatalf("segmented stream %d instructions, uninterrupted %d", len(seg), len(ref))
	}
}

// TestInjectCursorRemaining exercises the cursor bookkeeping directly.
func TestInjectCursorRemaining(t *testing.T) {
	effects := []pinball.SyscallEffect{
		{TID: 0, Num: 1}, {TID: 1, Num: 2}, {TID: 0, Num: 3}, {TID: 1, Num: 4}, {TID: 0, Num: 5},
	}
	c := NewInjectCursor(effects)
	if e, ok := c.Next(0); !ok || e.Num != 1 {
		t.Fatalf("first pop: %v %v", e, ok)
	}
	if e, ok := c.Next(1); !ok || e.Num != 2 {
		t.Fatalf("tid 1 pop: %v %v", e, ok)
	}
	if e, ok := c.Next(0); !ok || e.Num != 3 {
		t.Fatalf("second pop: %v %v", e, ok)
	}
	rem := c.Remaining()
	if len(rem) != 2 || rem[0].Num != 4 || rem[1].Num != 5 {
		t.Fatalf("remaining: %v", rem)
	}
	c.Next(1)
	c.Next(0)
	if _, ok := c.Next(0); ok {
		t.Error("exhausted queue popped")
	}
	if rem := c.Remaining(); len(rem) != 0 {
		t.Errorf("drained cursor remaining: %v", rem)
	}
}

// TestCheckpointValidationRejectsRot corrupts checkpoint metadata in ways
// the CRC manifest cannot catch (it is recomputed on rewrite) and checks
// ValidateCheckpoint rejects each.
func TestCheckpointValidationRejectsRot(t *testing.T) {
	exe, err := asm.Program(fileSumProgram)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, FS: inputFS(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	s.Machine.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
		count++
		if count == 300 {
			s.Machine.RequestStop()
		}
	}
	var ckpt *pinball.Pinball
	if err := s.RunCheckpointed(CkptOptions{
		Name: "v.ckpt",
		Save: func(p *pinball.Pinball) error { ckpt = p; return nil },
	}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if err := ckpt.ValidateCheckpoint(); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	corrupt := []struct {
		name string
		mut  func(p *pinball.Pinball)
	}{
		{"retired-sum", func(p *pinball.Pinball) { p.Meta.Checkpoint.GlobalRetired++ }},
		{"thread-count", func(p *pinball.Pinball) {
			p.Meta.Checkpoint.Threads = append(p.Meta.Checkpoint.Threads, pinball.ThreadState{Alive: true})
		}},
		{"no-alive-thread", func(p *pinball.Pinball) {
			for i := range p.Meta.Checkpoint.Threads {
				p.Meta.Checkpoint.Threads[i].Alive = false
			}
		}},
		{"sched-kind", func(p *pinball.Pinball) { p.Meta.Checkpoint.Sched.Kind = "lottery" }},
		{"rr-state-missing", func(p *pinball.Pinball) { p.Meta.Checkpoint.Sched.RR = nil }},
		{"clock-rate", func(p *pinball.Pinball) { p.Meta.Checkpoint.ClockNanosPerInstr = 0 }},
		{"brk-inverted", func(p *pinball.Pinball) { p.Meta.Checkpoint.Proc.Brk = p.Meta.Checkpoint.Proc.BrkStart - 1 }},
		{"stdin-offset", func(p *pinball.Pinball) { p.Meta.Checkpoint.Proc.StdinOff = len(p.Meta.Checkpoint.Proc.Stdin) + 1 }},
		{"fd-dup", func(p *pinball.Pinball) {
			ck := p.Meta.Checkpoint
			ck.Proc.FDs = append(ck.Proc.FDs, ck.Proc.FDs[len(ck.Proc.FDs)-1])
		}},
		{"fd-dangling", func(p *pinball.Pinball) {
			ck := p.Meta.Checkpoint
			ck.Proc.FDs = append(ck.Proc.FDs, kernel.FDState{FD: 99, Path: "/nope", HasFile: true})
		}},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			files, err := ckpt.FileSet()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := pinball.ReadFileSet(ckpt.Name, files, pinball.ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(fresh)
			if err := fresh.ValidateCheckpoint(); !errors.Is(err, pinball.ErrCorrupt) {
				t.Errorf("corruption %q not rejected: %v", tc.name, err)
			}
			// New must refuse to resume it.
			if _, err := New(Config{Mode: ModeNative, Pinball: fresh}); err == nil {
				t.Errorf("corrupted checkpoint %q resumed", tc.name)
			}
		})
	}
}

// TestCheckpointAcrossChain checkpoints a run while the fast path is deep
// inside a chained tight loop — no hooks, so the block-chaining executor
// (loop mode included) is what's actually running — and proves that (a)
// taking periodic mid-chain checkpoints does not perturb the run, and (b)
// resuming from a mid-chain checkpoint retires the exact remainder of the
// stream: identical totals, exit status, output, and final registers.
func TestCheckpointAcrossChain(t *testing.T) {
	const chainLoopProgram = `
	.text
	.global _start
_start:
	limm r1, 100000
loop:
	addi r2, r2, 1
	add  r3, r3, r2
	xor  r4, r4, r3
	cmp  r2, r1
	jnz  loop
	movi r0, 1          # write(1, msg, 5)
	movi r1, 1
	limm r2, msg
	movi r3, 5
	syscall
	mov  r1, r4
	andi r1, r1, 127
	movi r0, 231        # exit_group(r4 & 127)
	syscall
	.data
msg:	.ascii "done\n"
`
	exe, err := asm.Program(chainLoopProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 3}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !ref.Machine.Halted {
		t.Fatal("reference run did not finish")
	}

	// Periodic checkpoints at an offset that always lands mid-loop, with
	// the chained executor active. The run itself must be unperturbed.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first *pinball.Pinball
	var saves int
	err = s.RunCheckpointed(CkptOptions{
		Every: 12347,
		Name:  "chain.ckpt",
		Save: func(p *pinball.Pinball) error {
			if first == nil {
				first = p
			}
			saves++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves < 2 || first == nil {
		t.Fatalf("expected several periodic checkpoints, got %d", saves)
	}
	if s.Machine.GlobalRetired != ref.Machine.GlobalRetired ||
		s.Machine.ExitStatus != ref.Machine.ExitStatus {
		t.Errorf("checkpointed run perturbed: retired %d exit %d, want %d/%d",
			s.Machine.GlobalRetired, s.Machine.ExitStatus,
			ref.Machine.GlobalRetired, ref.Machine.ExitStatus)
	}

	base := first.Meta.Checkpoint.GlobalRetired
	if base == 0 || base >= ref.Machine.GlobalRetired {
		t.Fatalf("first checkpoint at %d, outside the run", base)
	}
	resumed, err := New(Config{Mode: ModeNative, Pinball: roundTripCkpt(t, first), Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed.Machine.Halted {
		t.Fatal("resumed run did not finish")
	}
	if got := base + resumed.Machine.GlobalRetired; got != ref.Machine.GlobalRetired {
		t.Errorf("retired %d+%d = %d, uninterrupted %d",
			base, resumed.Machine.GlobalRetired, got, ref.Machine.GlobalRetired)
	}
	if resumed.Machine.ExitStatus != ref.Machine.ExitStatus {
		t.Errorf("resumed exit %d, uninterrupted %d",
			resumed.Machine.ExitStatus, ref.Machine.ExitStatus)
	}
	if !bytes.Equal(resumed.Machine.Proc.Stdout, ref.Machine.Proc.Stdout) {
		t.Errorf("resumed stdout %q, uninterrupted %q",
			resumed.Machine.Proc.Stdout, ref.Machine.Proc.Stdout)
	}
	if resumed.Machine.Threads[0].Regs.GPR != ref.Machine.Threads[0].Regs.GPR {
		t.Errorf("final registers diverge:\nresumed %v\nref     %v",
			resumed.Machine.Threads[0].Regs.GPR, ref.Machine.Threads[0].Regs.GPR)
	}
}

// TestCkptBudgetStopsExactly bounds attempts by CkptOptions.Budget alone —
// no OnIns hook, so the chained core runs unless the engine is forced to
// the interpreter — and checks each stop lands exactly at the attempt's
// starting count plus Budget. Resuming from the first attempt's checkpoint
// must retire the same (tid, pc) stream as the uninterrupted run from that
// point on, so the stop left the scheduler mid-quantum exactly where an
// uninterrupted run would be.
func TestCkptBudgetStopsExactly(t *testing.T) {
	exe, err := asm.Program(twoThreadProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 21, Jitter: 37}
	record := func(s *Session, out *[]uint64) {
		s.Machine.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
			*out = append(*out, uint64(th.TID)<<48|r.PC)
		}
	}
	var ref []uint64
	refS, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	record(refS, &ref)
	if err := refS.Run(); err != nil {
		t.Fatal(err)
	}

	const budget = 4999
	for _, interp := range []bool{false, true} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Machine.DisableBlockCache = interp
		var ckpts []*pinball.Pinball
		opts := CkptOptions{
			Name:   "budget.ckpt",
			Save:   func(p *pinball.Pinball) error { ckpts = append(ckpts, p); return nil },
			Budget: budget,
		}
		for attempt := uint64(1); attempt <= 2; attempt++ {
			if err := s.RunCheckpointed(opts); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interp=%v attempt %d: want ErrInterrupted, got %v", interp, attempt, err)
			}
			if got := s.Machine.GlobalRetired; got != attempt*budget {
				t.Fatalf("interp=%v attempt %d stopped at %d, want %d", interp, attempt, got, attempt*budget)
			}
			if len(ckpts) != int(attempt) || ckpts[attempt-1].Meta.Checkpoint.GlobalRetired != attempt*budget {
				t.Fatalf("interp=%v attempt %d: no checkpoint at the stop", interp, attempt)
			}
		}

		var leg2 []uint64
		resumed, err := New(Config{Mode: ModeNative, Pinball: roundTripCkpt(t, ckpts[0]), Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		record(resumed, &leg2)
		if err := resumed.Run(); err != nil {
			t.Fatal(err)
		}
		want := ref[budget:]
		if len(leg2) != len(want) {
			t.Fatalf("interp=%v: resumed stream %d, uninterrupted remainder %d", interp, len(leg2), len(want))
		}
		for i := range want {
			if leg2[i] != want[i] {
				t.Fatalf("interp=%v: streams diverge at instruction %d", interp, budget+i)
			}
		}
	}

	// The session's own end wins over an attempt budget that lands with it.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunCheckpointed(CkptOptions{Budget: uint64(len(ref))}); err != nil {
		t.Fatalf("budget equal to the whole run: %v", err)
	}
	if s.Machine.AliveCount() != 0 || s.Machine.GlobalRetired != uint64(len(ref)) {
		t.Fatalf("run ended at %d with %d threads alive", s.Machine.GlobalRetired, s.Machine.AliveCount())
	}
}

// TestCkptDeadlineInterruptsOverdueRun: a run that would never end on its
// own (a guest spin loop) is stopped by its wall-clock Deadline, and the
// checkpoint it saves on the way out is a valid resumable pinball.
func TestCkptDeadlineInterruptsOverdueRun(t *testing.T) {
	exe, err := asm.Program(`
	.text
	.global _start
_start:
	addi r1, r1, 1
	jmp  _start
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ckpt *pinball.Pinball
	done := make(chan error, 1)
	go func() {
		done <- s.RunCheckpointed(CkptOptions{
			Name:     "spin.ckpt",
			Save:     func(p *pinball.Pinball) error { ckpt = p; return nil },
			Deadline: 20 * time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline never stopped the run")
	}
	if ckpt == nil || ckpt.Meta.Checkpoint.GlobalRetired != s.Machine.GlobalRetired {
		t.Fatal("no checkpoint at the interruption point")
	}
	roundTripCkpt(t, ckpt)
}

// TestCkptDeadlineDuringSaveResumes is the checkpoint-then-retry loop under
// a deadline shorter than one Save: the deadline passes while a periodic
// checkpoint is being saved, so every attempt ends at that checkpoint, and
// retries resuming from it still finish the run with the uninterrupted
// run's totals and exit status. A deadline lost during Save would let the
// first attempt run to the end.
func TestCkptDeadlineDuringSaveResumes(t *testing.T) {
	exe, err := asm.Program(`
	.text
	.global _start
_start:
	limm r1, 60000
loop:
	addi r2, r2, 1
	xor  r3, r3, r2
	cmp  r2, r1
	jnz  loop
	mov  r1, r3
	andi r1, r1, 127
	movi r0, 231        # exit_group(r3 & 127)
	syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeNative, Exe: exe, Argv: []string{"x"}, Seed: 3}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	const every = 50_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done, interrupted uint64 // instructions retired by finished attempts
	for attempt := 1; ; attempt++ {
		if attempt > 100 {
			t.Fatalf("no completion after %d attempts", attempt-1)
		}
		var ckpt *pinball.Pinball
		err := s.RunCheckpointed(CkptOptions{
			Every: every,
			Save: func(p *pinball.Pinball) error {
				time.Sleep(40 * time.Millisecond)
				ckpt = p
				return nil
			},
			Deadline: 5 * time.Millisecond,
		})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInterrupted) || ckpt == nil {
			t.Fatalf("attempt %d: err=%v ckpt=%v", attempt, err, ckpt != nil)
		}
		if s.Machine.GlobalRetired > every {
			t.Fatalf("attempt %d ran %d instructions past its first checkpoint", attempt, s.Machine.GlobalRetired)
		}
		interrupted++
		done += s.Machine.GlobalRetired
		if s, err = New(Config{Mode: ModeNative, Pinball: roundTripCkpt(t, ckpt), Seed: 77}); err != nil {
			t.Fatal(err)
		}
	}
	if interrupted == 0 {
		t.Fatal("the deadline never interrupted an attempt")
	}
	if !s.Machine.Halted || s.Machine.ExitStatus != ref.Machine.ExitStatus {
		t.Errorf("resumed run exit %d (halted %v), uninterrupted %d",
			s.Machine.ExitStatus, s.Machine.Halted, ref.Machine.ExitStatus)
	}
	if got := done + s.Machine.GlobalRetired; got != ref.Machine.GlobalRetired {
		t.Errorf("attempts retired %d in total, uninterrupted %d", got, ref.Machine.GlobalRetired)
	}
}
