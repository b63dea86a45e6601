package pin

import (
	"testing"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/vm"
)

func machineFor(t *testing.T, src string) *vm.Machine {
	t.Helper()
	exe, err := asm.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), 1)
	m, err := vm.NewLoaded(k, exe, []string{"p"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000
	return m
}

const prog = `
	.text
	.global _start
_start:
	movi r8, 0
l:	addi r8, r8, 1
	sscmark 1
	ld.q r2, [rsp]
	st.q r2, [rsp]
	cmpi r8, 100
	jnz  l
	movi r0, 231
	movi r1, 0
	syscall
`

func TestMultiplexing(t *testing.T) {
	m := machineFor(t, prog)
	eng := NewEngine(m)
	ic1 := NewICounter()
	ic2 := NewICounter()
	var markers, reads, writes, branches, syscalls int
	tool := &Tool{
		Name: "probe",
		OnIns: func(th *vm.Thread, r *vm.InsRecord) {
			if r.Ins.Op == isa.SSCMARK {
				markers++
			}
			if r.MemR {
				reads++
			}
			if r.MemW {
				writes++
			}
			if r.Branch {
				branches++
			}
		},
		OnSyscall: func(th *vm.Thread, num uint64, res kernel.Result) { syscalls++ },
	}
	eng.Attach(&ic1.Tool)
	eng.Attach(tool)
	eng.Attach(&ic2.Tool)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ic1.Total != ic2.Total || ic1.Total != m.GlobalRetired {
		t.Errorf("counters: %d %d retired %d", ic1.Total, ic2.Total, m.GlobalRetired)
	}
	if markers != 100 || reads != 100 || writes != 100 || branches != 100 || syscalls != 1 {
		t.Errorf("events: markers=%d reads=%d writes=%d branches=%d syscalls=%d",
			markers, reads, writes, branches, syscalls)
	}
	if ic1.PerThread[0] != ic1.Total {
		t.Errorf("per-thread: %v", ic1.PerThread)
	}
}

func TestSyscallFilterFirstWins(t *testing.T) {
	m := machineFor(t, prog)
	eng := NewEngine(m)
	order := []string{}
	a := &Tool{Name: "a", SyscallFilter: func(th *vm.Thread, num uint64) (kernel.Result, bool) {
		order = append(order, "a")
		return kernel.Result{Action: kernel.ActExitGroup, ExitStatus: 9}, true
	}}
	b := &Tool{Name: "b", SyscallFilter: func(th *vm.Thread, num uint64) (kernel.Result, bool) {
		order = append(order, "b")
		return kernel.Result{}, false
	}}
	eng.Attach(b)
	eng.Attach(a)
	m.Run()
	// b attached first, consulted first, declines; a handles.
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("order: %v", order)
	}
	if m.ExitStatus != 9 {
		t.Errorf("exit = %d (filter result not applied)", m.ExitStatus)
	}
}

func TestThreadLifecycleHooks(t *testing.T) {
	m := machineFor(t, `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk+4096
	limm r3, w
	syscall
	movi r0, 60
	syscall
w:	movi r0, 60
	syscall
	.bss
stk: .space 4096
`)
	eng := NewEngine(m)
	eng.Attach(&Tool{
		SyscallFilter: func(th *vm.Thread, num uint64) (kernel.Result, bool) { return kernel.Result{}, false },
		OnFault:       func(th *vm.Thread, f *mem.Fault) bool { return false },
	})
	// A tool with no per-instruction callback leaves OnIns nil, so the VM
	// can still select its block fast path.
	if m.Hooks.OnIns != nil {
		t.Error("per-instruction hook installed by a tool that provides none")
	}
	m.Run()
	if len(m.Threads) != 2 || m.AliveCount() != 0 {
		t.Errorf("threads=%d alive=%d, want the clone started and both exited",
			len(m.Threads), m.AliveCount())
	}
}

// TestComposeInPlace: Attach composes onto whatever hooks the machine
// already has — a hook installed before NewEngine keeps firing, and tools
// attached through two separate engines both fire, in attach order (for
// OnIns, counted at the markers, and for OnBlock).
func TestComposeInPlace(t *testing.T) {
	m := machineFor(t, prog)
	var order []string
	onMarker := func(name string) func(*vm.Thread, *vm.InsRecord) {
		return func(th *vm.Thread, r *vm.InsRecord) {
			if r.Ins.Op == isa.SSCMARK {
				order = append(order, name)
			}
		}
	}
	m.Hooks.OnIns = onMarker("pre")
	marker := func(name string) *Tool {
		return &Tool{Name: name, OnIns: onMarker(name)}
	}
	NewEngine(m).Attach(marker("a"))
	NewEngine(m).Attach(marker("b"))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 300 || order[0] != "pre" || order[1] != "a" || order[2] != "b" {
		t.Errorf("marker events: %d, first %v", len(order), order[:min(len(order), 3)])
	}

	// OnBlock composes the same way: each run reaches a, then b.
	m = machineFor(t, prog)
	var runs []string
	block := func(name string) *Tool {
		return &Tool{Name: name, OnBlock: func(th *vm.Thread, ins []isa.DecInst, reps int) {
			runs = append(runs, name)
		}}
	}
	NewEngine(m).Attach(block("a"))
	NewEngine(m).Attach(block("b"))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 || len(runs)%2 != 0 {
		t.Fatalf("%d OnBlock calls, want a non-zero even number", len(runs))
	}
	for i := 0; i < len(runs); i += 2 {
		if runs[i] != "a" || runs[i+1] != "b" {
			t.Fatalf("block run %d reached %s then %s, want a then b", i/2, runs[i], runs[i+1])
		}
	}
}

// TestSyscallFastInstall: a lone filtering tool gets its inline path; a
// tool behind an earlier filter does not, since its inline path would skip
// that filter; a later filter keeps the first tool's inline path.
func TestSyscallFastInstall(t *testing.T) {
	decline := func(th *vm.Thread, num uint64) (kernel.Result, bool) { return kernel.Result{}, false }
	fast := func(ret uint64) func(*vm.Thread, uint64) (uint64, bool) {
		return func(*vm.Thread, uint64) (uint64, bool) { return ret, true }
	}

	m := machineFor(t, prog)
	NewEngine(m).Attach(&Tool{SyscallFilter: decline, SyscallFast: fast(1)})
	NewEngine(m).Attach(&Tool{SyscallFilter: decline, SyscallFast: fast(2)})
	if m.Hooks.SyscallFast == nil {
		t.Fatal("lone filtering tool: SyscallFast not installed")
	}
	if ret, _ := m.Hooks.SyscallFast(nil, 0); ret != 1 {
		t.Errorf("SyscallFast is the later tool's (ret %d), want the first filter's", ret)
	}

	m = machineFor(t, prog)
	NewEngine(m).Attach(&Tool{SyscallFilter: decline})
	NewEngine(m).Attach(&Tool{SyscallFilter: decline, SyscallFast: fast(2)})
	if m.Hooks.SyscallFast != nil {
		t.Error("SyscallFast installed behind an earlier filter")
	}
}
