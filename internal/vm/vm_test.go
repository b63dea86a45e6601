package vm

import (
	"strings"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
)

// run assembles src, loads it into a fresh machine, runs it, and returns
// the machine.
func run(t *testing.T, src string, seed int64) *Machine {
	t.Helper()
	m := load(t, src, seed)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func load(t *testing.T, src string, seed int64) *Machine {
	t.Helper()
	exe, err := asm.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), seed)
	m, err := NewLoaded(k, exe, []string{"prog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 10_000_000
	return m
}

const exitSnippet = `
		movi r0, 231     # exit_group (status = r1)
		syscall
`

func TestHelloWorld(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:
		movi r0, 1       # write
		movi r1, 1       # stdout
		limm r2, msg
		movi r3, 14
		syscall
		movi r0, 231
		movi r1, 42
		syscall
		.data
msg:	.ascii "hello, world!\n"
	`, 1)
	if got := string(m.Stdout()); got != "hello, world!\n" {
		t.Errorf("stdout = %q", got)
	}
	if !m.Halted || m.ExitStatus != 42 {
		t.Errorf("halted=%v exit=%d", m.Halted, m.ExitStatus)
	}
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..100 into r2, store to memory, print nothing, exit with code 0.
	m := run(t, `
		.text
		.global _start
_start:
		movi r1, 0       # i
		movi r2, 0       # sum
loop:
		addi r1, r1, 1
		add  r2, r2, r1
		cmpi r1, 100
		jnz  loop
		limm r4, result
		st.q r2, [r4]
`+exitSnippet+`
		.data
result:	.quad 0
	`, 1)
	// Locate "result" through the machine's loaded image: sum must be 5050.
	// The .data section is mapped; scan for the value.
	found := false
	for _, r := range m.Proc.AS.Regions() {
		buf := make([]byte, r.Size)
		m.Proc.AS.ReadNoFault(r.Addr, buf)
		for off := 0; off+8 <= len(buf); off += 8 {
			v := uint64(buf[off]) | uint64(buf[off+1])<<8 | uint64(buf[off+2])<<16 |
				uint64(buf[off+3])<<24 | uint64(buf[off+4])<<32
			if v == 5050 {
				found = true
			}
		}
	}
	if !found {
		t.Error("sum 5050 not stored")
	}
}

func TestSignedBranches(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:
		movi r1, -5
		movi r2, 3
		cmp  r1, r2
		jl   less        # signed: -5 < 3
		movi r5, 0
		jmp  done
less:
		movi r5, 1
done:
		cmp  r1, r2      # unsigned: 0xfff..b > 3
		ja   above
		movi r6, 0
		jmp  out
above:
		movi r6, 1
out:
		mov  r1, r5
		shli r1, r1, 1
		or   r1, r1, r6
		movi r0, 231
		syscall
	`, 1)
	if m.ExitStatus != 3 {
		t.Errorf("exit = %d, want 3 (jl and ja both taken)", m.ExitStatus)
	}
}

func TestCallRetStack(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:
		movi r1, 7
		call double
		call double
		mov  r1, r0
		movi r0, 231
		syscall
double:
		add  r0, r1, r1
		mov  r1, r0
		ret
	`, 1)
	if m.ExitStatus != 28 {
		t.Errorf("exit = %d, want 28", m.ExitStatus)
	}
}

func TestMultiThreadClone(t *testing.T) {
	// Main thread clones a worker that atomically adds 100 to a counter,
	// then spins until the worker signals completion.
	m := run(t, `
		.text
		.global _start
_start:
		movi r0, 56           # clone
		movi r1, 0
		limm r2, childstack+4096
		limm r3, worker
		syscall
wait:
		limm r4, flag
		ld.q r5, [r4]
		cmpi r5, 1
		jz   joined
		pause
		jmp  wait
joined:
		limm r4, counter
		ld.q r1, [r4]
`+exitSnippet+`
worker:
		limm r4, counter
		movi r5, 100
		xadd r5, [r4]
		limm r4, flag
		movi r5, 1
		st.q r5, [r4]
		movi r0, 60           # exit (thread)
		movi r1, 0
		syscall
		.data
counter: .quad 11
flag:    .quad 0
		.bss
childstack: .space 4096
	`, 1)
	if m.ExitStatus != 111 {
		t.Errorf("exit = %d, want 111", m.ExitStatus)
	}
	if len(m.Threads) != 2 {
		t.Errorf("threads = %d", len(m.Threads))
	}
	if m.Threads[1].Alive {
		t.Error("worker still alive")
	}
}

func TestUngracefulFault(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:
		limm r1, 0xdead0000
		ld.q r2, [r1]
	`, 1)
	if m.FatalFault == nil || m.FatalFault.Addr != 0xdead0000 {
		t.Fatalf("fault = %+v", m.FatalFault)
	}
	if m.ExitStatus != 139 {
		t.Errorf("exit = %d", m.ExitStatus)
	}
	if m.Threads[0].Fault == nil {
		t.Error("thread fault not recorded")
	}
}

func TestFaultHookInjection(t *testing.T) {
	m := load(t, `
		.text
		.global _start
_start:
		limm r1, 0x77770000
		ld.q r2, [r1]
		mov  r1, r2
		movi r0, 231
		syscall
	`, 1)
	injected := 0
	m.Hooks.OnFault = func(th *Thread, f *mem.Fault) bool {
		if !f.Missing {
			return false
		}
		injected++
		m.Proc.AS.Map(mem.PageBase(f.Addr), mem.PageSize, mem.ProtRW)
		m.Proc.AS.WriteU64(f.Addr, 64)
		return true
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if injected != 1 || m.ExitStatus != 64 || m.FatalFault != nil {
		t.Errorf("injected=%d exit=%d fault=%v", injected, m.ExitStatus, m.FatalFault)
	}
}

func TestSyscallFilterInjection(t *testing.T) {
	// Replay-style injection: gettimeofday is skipped; r0 forced to 77.
	m := load(t, `
		.text
		.global _start
_start:
		movi r0, 96
		movi r1, 0        # NULL tv: would fault if executed natively
		syscall
		mov  r1, r0
		movi r0, 231
		syscall
	`, 1)
	m.Hooks.SyscallFilter = func(th *Thread, num uint64) (kernel.Result, bool) {
		if num == kernel.SysGettimeofday {
			return kernel.Result{Ret: 77}, true
		}
		return kernel.Result{}, false
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 77 {
		t.Errorf("exit = %d", m.ExitStatus)
	}
}

func TestPerfCounterExit(t *testing.T) {
	// Arm a 1000-instruction counter, then loop forever: the perf overflow
	// must exit the thread — the paper's graceful-exit mechanism.
	m := run(t, `
		.text
		.global _start
_start:
		movi r0, 298
		limm r1, attr
		syscall
spin:
		addi r2, r2, 1
		jmp  spin
		.data
attr:
		.quad 1000       # period
		.quad 0          # handler
		.quad 1          # flags: exit on overflow
	`, 1)
	if m.FatalFault != nil {
		t.Fatalf("fault: %v", m.FatalFault)
	}
	if m.Threads[0].Alive {
		t.Fatal("thread still alive")
	}
	// Thread retired its 2 setup instructions + syscall + ~1000 more.
	got := m.Threads[0].Retired
	if got < 1000 || got > 1010 {
		t.Errorf("retired = %d", got)
	}
	pcs := m.Threads[0].PerfCounters()
	if len(pcs) != 1 || !pcs[0].Fired {
		t.Errorf("counters: %+v", pcs)
	}
}

func TestPerfCounterExitGroup(t *testing.T) {
	// Thread 0 spawns a worker that spins forever, then arms a counter
	// flagged exit-group: its overflow must end the whole process at the
	// exact instruction, on the chained engine and the interpreter alike.
	const src = `
		.text
		.global _start
_start:
		movi r0, 56      # clone
		movi r1, 0
		limm r2, stk+4096
		limm r3, worker
		syscall
		movi r0, 298
		limm r1, attr
		syscall
spin:
		addi r2, r2, 1
		jmp  spin
worker:
		addi r3, r3, 1
		jmp  worker
		.data
attr:
		.quad 1000       # period
		.quad 0          # handler
		.quad 3          # flags: exit on overflow, whole process
		.bss
stk:	.space 4096
	`
	var retired [2]uint64
	for i, interp := range []bool{false, true} {
		m := load(t, src, 1)
		m.DisableBlockCache = interp
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !m.Halted || m.AliveCount() != 0 || m.ExitStatus != 0 || m.FatalFault != nil {
			t.Fatalf("interp=%v: halted=%v alive=%d exit=%d fault=%v",
				interp, m.Halted, m.AliveCount(), m.ExitStatus, m.FatalFault)
		}
		t0 := m.Threads[0]
		pcs := t0.PerfCounters()
		if len(pcs) != 1 || !pcs[0].Fired || !pcs[0].ExitGroup || pcs[0].Count(t0) != 1000 {
			t.Fatalf("interp=%v: counters %+v", interp, pcs)
		}
		retired[i] = m.GlobalRetired
	}
	if retired[0] != retired[1] || retired[0] > 10_000 {
		t.Errorf("retired chained=%d interp=%d", retired[0], retired[1])
	}
}

func TestPerfStateKeepsExitGroup(t *testing.T) {
	th := &Thread{Retired: 500}
	th.perf = []*PerfCounter{{Period: 900, ExitOnOverflow: true, ExitGroup: true, base: 100}}
	st := th.PerfState()
	back := &Thread{Retired: 7}
	back.RestorePerf(st)
	p := back.PerfCounters()[0]
	if !p.ExitOnOverflow || !p.ExitGroup || p.Count(back) != 400 {
		t.Errorf("restored %+v count %d", *p, p.Count(back))
	}
}

func TestPerfCounterHandler(t *testing.T) {
	// Overflow redirects to a handler that exits with a distinct status.
	m := run(t, `
		.text
		.global _start
_start:
		movi r0, 298
		limm r1, attr
		syscall
spin:
		addi r2, r2, 1
		jmp  spin
handler:
		movi r0, 231
		movi r1, 55
		syscall
		.data
attr:
		.quad 500
		.quad handler
		.quad 0
	`, 1)
	if m.ExitStatus != 55 {
		t.Errorf("exit = %d", m.ExitStatus)
	}
}

func TestMaxInstructions(t *testing.T) {
	m := load(t, `
		.text
		.global _start
_start:	jmp _start
	`, 1)
	m.MaxInstructions = 5000
	m.Run()
	if m.GlobalRetired != 5000 {
		t.Errorf("retired = %d", m.GlobalRetired)
	}
	if m.Halted {
		t.Error("machine halted")
	}
}

func TestMarkersAndHooks(t *testing.T) {
	m := load(t, `
		.text
		.global _start
_start:
		sscmark 0x1111
		magic 7
		cpuid r3, 2
`+exitSnippet, 1)
	var markers []uint32
	var ops []isa.Op
	insCount := 0
	m.Hooks.OnIns = func(th *Thread, r *InsRecord) {
		insCount++
		switch r.Ins.Op {
		case isa.SSCMARK, isa.MAGIC, isa.CPUID:
			markers = append(markers, uint32(r.Ins.Imm))
			ops = append(ops, r.Ins.Op)
		}
	}
	m.Run()
	if len(markers) != 3 || markers[0] != 0x1111 || markers[1] != 7 || markers[2] != 2 {
		t.Errorf("markers: %v (%v)", markers, ops)
	}
	if insCount != 5 {
		t.Errorf("OnIns count = %d", insCount)
	}
	// CPUID leaves a feature word.
	if m.Threads[0].Regs.GPR[isa.R3] == 0 {
		t.Error("cpuid did not write feature word")
	}
}

func TestSchedulerTrace(t *testing.T) {
	// Two threads increment a shared counter in a data race; with a
	// recorded schedule the interleaving is reproduced exactly.
	src := `
		.text
		.global _start
_start:
		movi r0, 56
		movi r1, 0
		limm r2, stack2+4096
		limm r3, worker
		syscall
		call bump
		movi r0, 60
		movi r1, 0
		syscall
worker:
		call bump
		movi r0, 60
		movi r1, 0
		syscall
bump:
		limm r4, shared
		movi r6, 0
again:
		ld.q r5, [r4]
		addi r5, r5, 1
		st.q r5, [r4]
		addi r6, r6, 1
		cmpi r6, 50
		jnz  again
		ret
		.data
shared:	.quad 0
		.bss
stack2:	.space 4096
	`
	// Run 1: record the schedule via OnIns.
	m1 := load(t, src, 3)
	m1.Sched = NewRoundRobin(7, 0, 0)
	var trace []SchedRecord
	m1.Hooks.OnIns = func(th *Thread, _ *InsRecord) {
		if n := len(trace); n > 0 && trace[n-1].TID == th.TID {
			trace[n-1].N++
		} else {
			trace = append(trace, SchedRecord{TID: th.TID, N: 1})
		}
	}
	m1.Run()
	final1 := m1.GlobalRetired

	// Run 2: replay the schedule with a TraceScheduler.
	m2 := load(t, src, 3)
	ts := &TraceScheduler{Trace: trace}
	m2.Sched = ts
	m2.Run()
	if m2.GlobalRetired != final1 {
		t.Errorf("retired %d != %d", m2.GlobalRetired, final1)
	}
	// Per-thread counts must match exactly.
	for i := range m1.Threads {
		if m1.Threads[i].Retired != m2.Threads[i].Retired {
			t.Errorf("t%d retired %d != %d", i, m1.Threads[i].Retired, m2.Threads[i].Retired)
		}
	}
}

func TestRoundRobinJitterVariation(t *testing.T) {
	src := `
		.text
		.global _start
_start:
		movi r0, 56
		movi r1, 0
		limm r2, stack2+4096
		limm r3, worker
		syscall
		limm r4, shared
		movi r6, 0
l1:
		movi r7, 1
		xadd r7, [r4]
		addi r6, r6, 1
		cmpi r6, 200
		jnz  l1
		movi r0, 60
		syscall
worker:
		limm r4, shared
w1:
		ld.q r5, [r4]
		cmpi r5, 150
		jae  wdone
		pause
		jmp  w1
wdone:
		movi r0, 60
		syscall
		.data
shared:	.quad 0
		.bss
stack2:	.space 4096
	`
	// Different jitter seeds give different spin iteration counts for the
	// worker — the run-to-run variation ELFies exhibit (paper Fig. 11).
	counts := map[uint64]bool{}
	for seed := int64(0); seed < 6; seed++ {
		m := load(t, src, 9)
		m.Sched = NewRoundRobin(50, 30, seed)
		m.Run()
		counts[m.Threads[1].Retired] = true
	}
	if len(counts) < 2 {
		t.Errorf("no variation across seeds: %v", counts)
	}
}

func TestHLT(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:	hlt
	`, 1)
	if !m.Halted {
		t.Error("not halted")
	}
	if !strings.Contains(m.DumpState(), "halted=true") {
		t.Error("DumpState")
	}
}

func TestVectorAndXsaveExec(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:
		limm r1, vals
		vld  v0, [r1]
		vld  v1, [r1+16]
		vaddq v2, v0, v1
		vst  v2, [r1+32]
		limm r2, area
		xsave r2
		vxor v2, v2, v2
		xrstor r2
		limm r1, vals
		ld.q r3, [r1+32]
		movqv r4, v2
		cmp  r3, r4
		jz   good
		movi r1, 1
		movi r0, 231
		syscall
good:
		movi r1, 0
		movi r0, 231
		syscall
		.data
		.align 16
vals:	.quad 10, 20, 30, 40
		.quad 0, 0
		.align 64
area:	.space 256
	`, 1)
	if m.ExitStatus != 0 {
		t.Errorf("exit = %d (xsave/xrstor mismatch)", m.ExitStatus)
	}
}

func TestFSGSBase(t *testing.T) {
	m := run(t, `
		.text
		.global _start
_start:
		limm r1, tls
		wrfsbase r1
		rdfsbase r2
		ld.q r3, [r2]
		mov  r1, r3
		movi r0, 231
		syscall
		.data
tls:	.quad 99
	`, 1)
	if m.ExitStatus != 99 {
		t.Errorf("exit = %d", m.ExitStatus)
	}
}

func TestRoundRobinStateRoundTrip(t *testing.T) {
	m := &Machine{Threads: []*Thread{
		{TID: 0, Alive: true}, {TID: 1, Alive: true}, {TID: 2, Alive: true},
	}}
	rr := NewRoundRobin(100, 37, 5)
	// Burn an arbitrary prefix of the quantum sequence.
	for i := 0; i < 17; i++ {
		tid, n := rr.Next(m)
		rr.Ran(tid, n)
	}

	// Serialize with no in-flight quantum: the restored scheduler must
	// produce the identical (tid, quantum) sequence.
	st := rr.State(0)
	rr2 := RestoreRoundRobin(st)
	for i := 0; i < 50; i++ {
		tid1, n1 := rr.Next(m)
		tid2, n2 := rr2.Next(m)
		if tid1 != tid2 || n1 != n2 {
			t.Fatalf("step %d: (%d,%d) vs (%d,%d)", i, tid1, n1, tid2, n2)
		}
		rr.Ran(tid1, n1)
		rr2.Ran(tid2, n2)
	}

	// Serialize with an in-flight residual quantum: the restored scheduler
	// re-grants exactly (last, resid) first, then continues the rotation.
	tid, n := rr.Next(m)
	if n <= 3 {
		t.Fatalf("quantum %d too small for a residual test", n)
	}
	rr.Ran(tid, n-3) // pretend 3 instructions of the grant never ran
	st = rr.State(3)
	rr3 := RestoreRoundRobin(st)
	rtid, rn := rr3.Next(m)
	if rtid != tid || rn != 3 {
		t.Fatalf("residual grant (%d,%d), want (%d,3)", rtid, rn, tid)
	}
	rr3.Ran(rtid, rn)
	// After the residual drains, the two schedulers converge again.
	for i := 0; i < 20; i++ {
		tid1, n1 := rr.Next(m)
		tid2, n2 := rr3.Next(m)
		if tid1 != tid2 || n1 != n2 {
			t.Fatalf("post-residual step %d: (%d,%d) vs (%d,%d)", i, tid1, n1, tid2, n2)
		}
		rr.Ran(tid1, n1)
		rr3.Ran(tid2, n2)
	}

	// A dead last-thread drops the residual instead of granting it.
	st.Last, st.Resid = 1, 50
	m.Threads[1].Alive = false
	rr4 := RestoreRoundRobin(st)
	if tid, _ := rr4.Next(m); tid == 1 {
		t.Fatal("residual granted to a dead thread")
	}
}
