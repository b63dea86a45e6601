package core

import (
	"strings"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/elfobj"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/vm"
)

// computeProg runs a long pure-compute loop; its region needs no system
// calls, so an ELFie reproduces it exactly.
const computeProg = `
	.text
	.global _start
_start:
	movi r1, 0x1234
	movi r2, 0
	movi r8, 0
	limm r13, table
loop:
	muli r1, r1, 25
	addi r1, r1, 13
	andi r3, r1, 1020
	lea1 r4, r13, r3, 0
	ld.q r5, [r4]
	add  r2, r2, r5
	st.q r2, [r4]
	addi r8, r8, 1
	cmpi r8, 100000
	jnz  loop
	movi r0, 231
	movi r1, 0
	syscall
	.data
	.align 8
table:	.space 1024
`

const mtComputeProg = `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk1+8192
	limm r3, worker
	syscall
	movi r8, 0
	limm r13, tableA
mloop:
	muli r9, r9, 31
	addi r9, r9, 7
	andi r3, r9, 504
	lea1 r4, r13, r3, 0
	ld.q r5, [r4]
	add  r9, r9, r5
	st.q r9, [r4]
	addi r8, r8, 1
	cmpi r8, 80000
	jnz  mloop
	movi r0, 60
	movi r1, 0
	syscall
worker:
	movi r8, 0
	limm r13, tableB
wloop:
	muli r9, r9, 17
	addi r9, r9, 3
	andi r3, r9, 504
	lea1 r4, r13, r3, 0
	ld.q r5, [r4]
	add  r9, r9, r5
	st.q r9, [r4]
	addi r8, r8, 1
	cmpi r8, 80000
	jnz  wloop
	movi r0, 60
	movi r1, 0
	syscall
	.data
	.align 8
tableA:	.space 512
tableB:	.space 512
	.bss
stk1:	.space 8192
`

func makePinball(t *testing.T, src string, opts pinplay.LogOptions) *pinball.Pinball {
	t.Helper()
	exe, err := asm.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), 1)
	m, err := vm.NewLoaded(k, exe, []string{"prog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 50_000_000
	pb, err := pinplay.Log(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// runELFie loads and runs an ELFie executable natively on a fresh machine.
func runELFie(t *testing.T, exe *elfobj.File, seed int64, max uint64) *vm.Machine {
	t.Helper()
	// Round-trip through the binary ELF form: the ELFie must be a valid
	// on-disk executable, not just an in-memory structure.
	buf, err := exe.Write()
	if err != nil {
		t.Fatal(err)
	}
	exe2, err := elfobj.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), seed)
	m, err := vm.NewLoaded(k, exe2, []string{"elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = max
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConvertBasics(t *testing.T) {
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 5000, RegionLength: 100_000}.Fat())
	res, err := Convert(pb, Options{GracefulExit: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exe.Entry == 0 {
		t.Error("no entry point")
	}
	if len(res.PerfPeriods) != 1 || res.PerfPeriods[0] < 100_000 {
		t.Errorf("perf periods: %v", res.PerfPeriods)
	}
	if !strings.Contains(res.StartupSource, "_start:") ||
		!strings.Contains(res.StartupSource, "jmpm __elfie_t0_target") {
		t.Errorf("startup source:\n%s", res.StartupSource)
	}
	if !strings.Contains(res.Script.Format(), "NOLOAD") {
		t.Error("linker script has no NOLOAD stack placement")
	}
	if !strings.Contains(res.ContextsAsm, "# rsp") {
		t.Error("contexts listing missing rsp")
	}
	// Debug symbols present.
	if _, ok := res.Exe.Symbol(".t0.r0"); !ok {
		t.Error(".t0.r0 symbol missing")
	}
	if _, ok := res.Exe.Symbol("__elfie_t0_start"); !ok {
		t.Error("__elfie_t0_start symbol missing")
	}
	// Stack sections are non-loadable.
	for _, s := range res.Exe.Sections {
		if strings.HasPrefix(s.Name, ".stack.") && s.Flags&elfobj.SHFAlloc != 0 {
			t.Errorf("stack section %s is loadable", s.Name)
		}
	}
}

func TestELFieRunsAndExitsGracefully(t *testing.T) {
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 5000, RegionLength: 100_000}.Fat())
	res, err := Convert(pb, Options{GracefulExit: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runELFie(t, res.Exe, 42, 10_000_000)
	if m.FatalFault != nil {
		t.Fatalf("ungraceful exit: %v\n%s", m.FatalFault, m.DumpState())
	}
	if m.AliveCount() != 0 {
		t.Fatalf("threads still alive:\n%s", m.DumpState())
	}
	// Graceful exit fires exactly at the budget: the counter value equals
	// the perf period (startup tail + region length) to the instruction.
	pcs := m.Threads[0].PerfCounters()
	if len(pcs) != 1 || !pcs[0].Fired {
		t.Fatalf("perf counter not fired: retired=%d", m.Threads[0].Retired)
	}
	if c := pcs[0].Count(m.Threads[0]); c != res.PerfPeriods[0] {
		t.Errorf("counter = %d, want %d", c, res.PerfPeriods[0])
	}
	// A single-threaded region keeps the plain per-thread exit.
	if pcs[0].ExitGroup {
		t.Error("single-threaded ELFie counter flagged exit-group")
	}
}

func TestELFieStateRestoredExactly(t *testing.T) {
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 12345, RegionLength: 50_000}.Fat())
	res, err := Convert(pb, Options{GracefulExit: true})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := res.Exe.Write()
	if err != nil {
		t.Fatal(err)
	}
	exe2, err := elfobj.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), 7)
	m, err := vm.NewLoaded(k, exe2, []string{"elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 10_000_000

	// Watch for the first arrival at the captured PC (the first retired
	// instruction that leaves the thread there) and compare the full
	// architectural state against the pinball's .reg contents.
	var checked bool
	var mismatch string
	m.Hooks.OnIns = func(th *vm.Thread, _ *vm.InsRecord) {
		if checked || th.Regs.PC != pb.Regs[0].PC {
			return
		}
		checked = true
		want := pb.Regs[0]
		got := th.Regs
		got.PC = want.PC // PC is the trigger itself
		if got != want {
			mismatch = "register state differs at region entry"
			if got.GPR != want.GPR {
				mismatch += " (GPRs)"
			}
			if got.Flags != want.Flags {
				mismatch += " (flags)"
			}
			if got.FSBase != want.FSBase || got.GSBase != want.GSBase {
				mismatch += " (segment bases)"
			}
			if got.V != want.V {
				mismatch += " (vector state)"
			}
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatalf("never reached captured PC %#x\n%s", pb.Regs[0].PC, m.DumpState())
	}
	if mismatch != "" {
		t.Error(mismatch)
	}
	// Memory state: the captured region's data pages must match the
	// pinball image when first touched. Spot-check: the table page.
	for _, pg := range pb.Pages {
		data := make([]byte, 64)
		if n := m.Proc.AS.ReadNoFault(pg.Addr, data); n == 0 {
			t.Errorf("pinball page %#x not mapped in ELFie", pg.Addr)
			break
		}
	}
}

func TestMultiThreadedELFie(t *testing.T) {
	pb := makePinball(t, mtComputeProg,
		pinplay.LogOptions{Name: "mt", RegionStart: 20_000, RegionLength: 200_000}.Fat())
	if pb.Meta.NumThreads != 2 {
		t.Fatalf("threads = %d", pb.Meta.NumThreads)
	}
	res, err := Convert(pb, Options{GracefulExit: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runELFie(t, res.Exe, 99, 20_000_000)
	if m.FatalFault != nil {
		t.Fatalf("fault: %v\n%s", m.FatalFault, m.DumpState())
	}
	if len(m.Threads) != 2 {
		t.Fatalf("elfie threads = %d", len(m.Threads))
	}
	for i, th := range m.Threads {
		if th.Alive {
			t.Errorf("thread %d alive", i)
		}
		pcs := th.PerfCounters()
		if len(pcs) != 1 || !pcs[0].Fired {
			t.Errorf("thread %d counter: %+v", i, pcs)
			continue
		}
		if c := pcs[0].Count(th); c != res.PerfPeriods[i] {
			t.Errorf("thread %d counted %d, want %d", i, c, res.PerfPeriods[i])
		}
		// Only the counted thread's overflow ends the process.
		if pcs[0].ExitGroup != (i == 0) {
			t.Errorf("thread %d exit-group = %v", i, pcs[0].ExitGroup)
		}
	}
}

func TestELFieWithoutGracefulExitRunsPastRegion(t *testing.T) {
	// Without perf-counter exit, the ELFie keeps executing past the region
	// (the program loop continues) until it leaves captured memory or, as
	// here, reaches its natural exit.
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 5000, RegionLength: 10_000}.Fat())
	res, err := Convert(pb, Options{GracefulExit: false})
	if err != nil {
		t.Fatal(err)
	}
	m := runELFie(t, res.Exe, 1, 10_000_000)
	if m.Threads[0].Retired <= 2*10_000 {
		t.Errorf("expected run past region, retired only %d", m.Threads[0].Retired)
	}
}

func TestMarkers(t *testing.T) {
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 5000, RegionLength: 5_000}.Fat())
	res, err := Convert(pb, Options{GracefulExit: true, Marker: MarkerSSC, MarkerTag: 0xbeef})
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := res.Exe.Write()
	exe2, _ := elfobj.Read(buf)
	k := kernel.New(kernel.NewFS(), 3)
	m, err := vm.NewLoaded(k, exe2, []string{"elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000
	var sawMarker bool
	var afterMarker int
	m.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
		if sawMarker {
			afterMarker++
		}
		if r.Ins.Op == isa.SSCMARK && uint32(r.Ins.Imm) == 0xbeef {
			sawMarker = true
		}
	}
	m.Run()
	if !sawMarker {
		t.Fatal("marker never executed")
	}
	// The marker fires in the startup tail, shortly before app code.
	if afterMarker < 5000 {
		t.Errorf("only %d instructions after marker", afterMarker)
	}
}

func TestCallbacks(t *testing.T) {
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 5000, RegionLength: 5_000}.Fat())
	user := `
	.section .elfie.user.text, "ax"
	.global elfie_on_start, elfie_on_thread_start, elfie_on_exit
elfie_on_start:
	limm r0, hits
	movi r2, 1
	xadd r2, [r0]
	ret
elfie_on_thread_start:
	limm r0, hits
	movi r2, 100
	xadd r2, [r0]
	ret
elfie_on_exit:
	limm r0, hits
	movi r2, 10000
	xadd r2, [r0]
	movi r0, 1          # write the final value to stdout as 8 raw bytes
	movi r1, 1
	limm r2, hits
	movi r3, 8
	syscall
	ret
	.section .elfie.user.data, "aw"
	.global hits
hits:	.quad 0
	`
	res, err := Convert(pb, Options{
		GracefulExit: true, OnStart: true, OnThreadStart: true, OnExit: true,
		UserSource: user,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := runELFie(t, res.Exe, 5, 10_000_000)
	if m.FatalFault != nil {
		t.Fatalf("fault: %v", m.FatalFault)
	}
	out := m.Stdout()
	if len(out) != 8 {
		t.Fatalf("stdout: %v (callbacks not all run)", out)
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(out[i])
	}
	// 1 on_start + 100 on_thread_start + 10000 on_exit = 10101.
	if v != 10101 {
		t.Errorf("hits = %d, want 10101", v)
	}
	// Monitor mode: 2 threads total (monitor + app thread).
	if len(m.Threads) != 2 {
		t.Errorf("threads = %d", len(m.Threads))
	}
}

func TestConvertErrors(t *testing.T) {
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 100, RegionLength: 1000}) // not fat
	if _, err := Convert(pb, Options{}); err == nil || !strings.Contains(err.Error(), "not fat") {
		t.Errorf("non-fat accepted: %v", err)
	}
	if _, err := Convert(pb, Options{AllowNonFat: true}); err != nil {
		t.Errorf("AllowNonFat rejected: %v", err)
	}
	fatPb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 100, RegionLength: 1000}.Fat())
	if _, err := Convert(fatPb, Options{OnExit: true, GracefulExit: false, UserSource: "nop"}); err == nil {
		t.Error("OnExit without GracefulExit accepted")
	}
	if _, err := Convert(fatPb, Options{OnStart: true}); err == nil {
		t.Error("callback without user source accepted")
	}
	if _, err := Convert(&pinball.Pinball{}, Options{}); err == nil {
		t.Error("empty pinball accepted")
	}
}

func TestNonFatELFieFailsOnDivergence(t *testing.T) {
	// A non-fat ELFie misses untouched pages; running it past the captured
	// region (no graceful exit) eventually touches missing state.
	// With graceful exit it can still complete the region, because a
	// faithful re-execution touches exactly the captured pages.
	pb := makePinball(t, computeProg,
		pinplay.LogOptions{Name: "c", RegionStart: 5000, RegionLength: 10_000})
	res, err := Convert(pb, Options{GracefulExit: true, AllowNonFat: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runELFie(t, res.Exe, 11, 10_000_000)
	if m.FatalFault != nil {
		t.Logf("non-fat ELFie died (acceptable): %v", m.FatalFault)
	} else if m.Threads[0].PerfCounters()[0].Fired {
		t.Log("non-fat ELFie completed its region (pure-compute region)")
	}
}
