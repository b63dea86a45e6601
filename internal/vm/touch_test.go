package vm

import (
	"testing"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
)

// touchProg strides over four data pages, then has the kernel read one
// buffer (write(2): copy-in) and fill another (clock_gettime: copy-out).
// The guest itself never touches the two buffer pages.
const touchProg = `
	.text
	.global _start
_start:
	movi r13, 0
outer:
	limm r12, arr
	movi r8, 0
inner:
	ld.q r7, [r12]
	addi r7, r7, 1
	st.q r7, [r12]
	addi r12, r12, 4096
	addi r8, r8, 1
	cmpi r8, 4
	jnz  inner
	movi r0, 1           # write(1, kin, 8)
	movi r1, 1
	limm r2, kin
	movi r3, 8
	syscall
	movi r0, 228         # clock_gettime(0, kout)
	movi r1, 0
	limm r2, kout
	syscall
	addi r13, r13, 1
	cmpi r13, 3000
	jnz  outer
	movi r0, 231
	movi r1, 0
	syscall
	.data
	.align 4096
arr:	.space 16384
kin:	.space 4096
kout:	.space 4096
`

// logLikeHooks installs the hooks the PinPlay logger uses — OnBlock, a
// SyscallFilter that declines every call, OnSyscall — and returns the
// longest run OnBlock reported so far.
func logLikeHooks(m *Machine, filter func(th *Thread)) func() int {
	longest := 0
	m.Hooks.OnBlock = func(th *Thread, ins []isa.DecInst, reps int) {
		longest = max(longest, len(ins))
	}
	m.Hooks.SyscallFilter = func(th *Thread, num uint64) (kernel.Result, bool) {
		if filter != nil {
			filter(th)
		}
		return kernel.Result{}, false
	}
	m.Hooks.OnSyscall = func(th *Thread, num uint64, res kernel.Result) {}
	return func() int { return longest }
}

// TestFirstTouchAfterWarmFastForward: first-touch tracking armed after a
// fast-forward has warmed the TLB and the block cache still reports every
// data page the guest touches from then on, once each, while the run stays
// on the chained core; the pages only the kernel reads or writes are never
// reported.
func TestFirstTouchAfterWarmFastForward(t *testing.T) {
	exe, err := asm.Program(touchProg)
	if err != nil {
		t.Fatal(err)
	}
	sym := func(name string) uint64 {
		s, ok := exe.Symbol(name)
		if !ok {
			t.Fatalf("no symbol %s", name)
		}
		return s.Value
	}
	m, err := NewLoaded(kernel.New(kernel.NewFS(), 1), exe, []string{"prog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	longest := logLikeHooks(m, nil)
	m.MaxInstructions = 20_000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	reported := map[uint64]int{}
	m.Proc.AS.TrackFirstTouch(func(base uint64) { reported[base]++ })
	m.MaxInstructions = 30_000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Proc.AS.TrackFirstTouch(nil)

	if !m.fastPathOK() || longest() < 2 {
		t.Fatalf("logger hooks left the chained core (fastPathOK=%v, longest run %d)", m.fastPathOK(), longest())
	}
	arr := sym("arr")
	for k := uint64(0); k < 4; k++ {
		if n := reported[arr+k*mem.PageSize]; n != 1 {
			t.Errorf("data page %d reported %d times, want once", k, n)
		}
	}
	for _, buf := range []string{"kin", "kout"} {
		if n := reported[mem.PageBase(sym(buf))]; n != 0 {
			t.Errorf("kernel-only page %s reported %d times", buf, n)
		}
	}
	if len(reported) != 4 {
		t.Errorf("reported pages %v, want the four data pages", reported)
	}
}

// syscallStateProg changes r1–r5 and both segment bases on every trip of
// a hot loop, then makes a system call.
const syscallStateProg = `
	.text
	.global _start
_start:
	movi r13, 0
loop:
	addi r13, r13, 1
	mov  r1, r13
	addi r2, r13, 1
	addi r3, r13, 2
	addi r4, r13, 3
	addi r5, r13, 4
	addi r6, r13, 100
	wrfsbase r6
	addi r6, r13, 200
	wrgsbase r6
	movi r0, 39          # getpid
	syscall
	cmpi r13, 2000
	jnz  loop
	movi r0, 231
	movi r1, 0
	syscall
`

// TestSyscallFilterSeesSpilledState: on the chained core, SyscallFilter
// sees the caller's R1–R5 and FS/GS bases exactly as the guest last wrote
// them — the pre-syscall state the logger records.
func TestSyscallFilterSeesSpilledState(t *testing.T) {
	m := load(t, syscallStateProg, 1)
	calls := uint64(0)
	longest := logLikeHooks(m, func(th *Thread) {
		r := &th.Regs
		if r.GPR[isa.R0] != kernel.SysGetpid {
			return
		}
		calls++
		g := r.GPR
		if g[isa.R1] != calls || g[isa.R2] != calls+1 || g[isa.R3] != calls+2 ||
			g[isa.R4] != calls+3 || g[isa.R5] != calls+4 ||
			r.FSBase != calls+100 || r.GSBase != calls+200 {
			t.Fatalf("call %d: filter sees r1-r5 %v fs %d gs %d", calls, g[isa.R1:isa.R5+1], r.FSBase, r.GSBase)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 2000 {
		t.Errorf("filter saw %d getpid calls, want 2000", calls)
	}
	if longest() < 2 {
		t.Error("no multi-instruction run reported; the chained core was not used")
	}
}
