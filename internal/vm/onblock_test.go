package vm

import (
	"slices"
	"testing"

	"elfie/internal/isa"
	"elfie/internal/mem"
)

// streamOnBlock runs m with only OnBlock installed and returns each
// thread's flattened PC stream and the longest run reported. Every thread's
// Σ reps·len(ins) must equal its retired count.
func streamOnBlock(t *testing.T, m *Machine) (map[int][]uint64, int) {
	t.Helper()
	pcs := map[int][]uint64{}
	sums := map[int]uint64{}
	longest := 0
	m.Hooks.OnBlock = func(th *Thread, ins []isa.DecInst, reps int) {
		for r := 0; r < reps; r++ {
			for i := range ins {
				pcs[th.TID] = append(pcs[th.TID], ins[i].PC())
			}
		}
		sums[th.TID] += uint64(reps * len(ins))
		longest = max(longest, reps*len(ins))
	}
	if !m.fastPathOK() {
		t.Fatal("OnBlock alone disabled the fast path")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, th := range m.Threads {
		if sums[th.TID] != th.Retired {
			t.Errorf("thread %d: OnBlock runs sum to %d, retired %d", th.TID, sums[th.TID], th.Retired)
		}
	}
	return pcs, longest
}

// streamOnIns runs m on the per-instruction path and returns each thread's
// PC stream.
func streamOnIns(t *testing.T, m *Machine) map[int][]uint64 {
	t.Helper()
	pcs := map[int][]uint64{}
	m.Hooks.OnIns = func(th *Thread, r *InsRecord) { pcs[th.TID] = append(pcs[th.TID], r.PC) }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return pcs
}

// checkStreams compares the OnBlock stream of a chained-core run against
// the OnIns stream of an identical per-instruction run, thread by thread.
func checkStreams(t *testing.T, name string, newMachine func() *Machine) {
	t.Helper()
	got, longest := streamOnBlock(t, newMachine())
	want := streamOnIns(t, newMachine())
	if longest < 2 {
		t.Errorf("%s: no multi-instruction run reported; block path not taken", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d threads reported, want %d", name, len(got), len(want))
	}
	for tid, w := range want {
		g := got[tid]
		if i := firstDiff(g, w); i >= 0 {
			t.Errorf("%s: thread %d streams differ at instruction %d (len %d vs %d)",
				name, tid, i, len(g), len(w))
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestOnBlockStreamMultiThread: four threads under a short jittered
// quantum, so scheduler switches cut blocks, self-loops and superblocks at
// arbitrary points.
func TestOnBlockStreamMultiThread(t *testing.T) {
	src := `
		.text
		.global _start
_start:
		movi r9, 0
spawn:
		movi r0, 56           # clone
		movi r1, 0
		limm r2, stacks+4096
		muli r6, r9, 4096
		add  r2, r2, r6
		limm r3, worker
		syscall
		addi r9, r9, 1
		cmpi r9, 3
		jnz  spawn
		call work
wait:
		limm r4, done
		ld.q r5, [r4]
		cmpi r5, 3
		jz   joined
		pause
		jmp  wait
joined:
		movi r1, 0
` + exitSnippet + `
worker:
		call work
		limm r4, done
		movi r5, 1
		xadd r5, [r4]
		movi r0, 60           # exit (thread)
		movi r1, 0
		syscall
work:
		movi r8, 0
tight:
		addi r2, r2, 3
		xor  r3, r3, r2
		addi r8, r8, 1
		cmpi r8, 700
		jnz  tight
		movi r8, 0
outer:
		limm r4, buf
		andi r6, r8, 63
		lea8 r4, r4, r6, 0
		st.q r8, [r4]
		ld.q r7, [r4]
		testi r8, 1
		jz   even
		addi r3, r3, 5
even:
		addi r8, r8, 1
		cmpi r8, 2000
		jnz  outer
		ret
		.data
done: .quad 0
		.bss
buf:    .space 512
stacks: .space 16384
`
	for _, seed := range []int64{1, 2} {
		checkStreams(t, "multithread", func() *Machine {
			m := load(t, src, 1)
			m.Sched = NewRoundRobin(37, 20, seed)
			return m
		})
	}
}

// TestOnBlockStreamPerfExit: an exit-on-overflow perf counter — the ELFie
// graceful-exit mechanism — ends the thread in the middle of a block; the
// last run reported is the retired prefix. Loop mode (a tight batchable
// self-loop) runs first, so batched iterations are covered too.
func TestOnBlockStreamPerfExit(t *testing.T) {
	src := `
		.text
		.global _start
_start:
		movi r0, 298      # perf_event_open
		limm r1, attr
		syscall
		movi r8, 0
tight:
		addi r2, r2, 1
		addi r3, r3, 2
		cmpi r2, 900
		jnz  tight
spin:
		addi r5, r5, 1
		limm r4, cell
		st.q r5, [r4]
		ld.q r6, [r4]
		addi r7, r7, 2
		xor  r6, r6, r7
		jmp  spin
		.data
attr:
		.quad 4003        # period
		.quad 0           # handler
		.quad 1           # flags: exit on overflow
cell:	.quad 0
`
	checkStreams(t, "perfexit", func() *Machine { return load(t, src, 1) })

	m := load(t, src, 1)
	var last []isa.DecInst
	m.Hooks.OnBlock = func(th *Thread, ins []isa.DecInst, reps int) { last = slices.Clone(ins) }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Counting starts after the third instruction. 1 + 900×4 instructions
	// later the spin loop starts with 402 = 57×7 + 3 left, so the counter
	// fires after the loop's third instruction.
	if th := m.Threads[0]; th.Alive || th.Retired != 3+4003 {
		t.Errorf("perf exit: alive=%v retired=%d, want exit at %d", th.Alive, th.Retired, 3+4003)
	}
	if len(last) != 3 || last[2].Op != isa.STQ {
		t.Errorf("last run: %d instructions %v, want the spin loop's first 3", len(last), last)
	}
}

// TestOnBlockStreamSMC: stores into the executable page end the chain from
// inside a batch run — a quadword store, a byte store and a push, each in
// the memory tier — so each visit is reported up to and including the
// store.
func TestOnBlockStreamSMC(t *testing.T) {
	code := make([]byte, 0x90)
	encAt(code, 0x00,
		isa.Inst{Op: isa.LIMM, A: 1, Imm64: 0x1800}, // r1: data in the code page
		isa.Inst{Op: isa.LIMM, A: uint8(isa.RSP), Imm64: 0x1900})
	encAt(code, 0x20, // loop: 0x1020
		isa.Inst{Op: isa.RDTSC, A: 7}, // not batchable: keeps the loop out of loop mode
		isa.Inst{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
		isa.Inst{Op: isa.ADDI, A: 4, B: 4, Imm: 2},
		isa.Inst{Op: isa.STQ, A: 4, B: 1},
		isa.Inst{Op: isa.ADDI, A: 5, B: 5, Imm: 3},
		isa.Inst{Op: isa.STB, A: 5, B: 1, Imm: 8},
		isa.Inst{Op: isa.XOR, A: 6, B: 6, C: 5},
		isa.Inst{Op: isa.ADDI, A: 4, B: 4, Imm: 1},
		isa.Inst{Op: isa.PUSH, A: 5},
		isa.Inst{Op: isa.POP, A: 6},
		isa.Inst{Op: isa.ADDI, A: 5, B: 5, Imm: 1},
		isa.Inst{Op: isa.CMPI, B: 9, Imm: 40},
		isa.Inst{Op: isa.JNZ, Imm: -0x68}, // -> loop
		isa.Inst{Op: isa.HLT})
	checkStreams(t, "smc", func() *Machine {
		m, _ := rawMachine(code, 0x1000, 0x1000, mem.ProtRWX)
		return m
	})
}
