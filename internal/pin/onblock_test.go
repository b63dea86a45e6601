package pin_test

import (
	"testing"

	"elfie/internal/asm"
	"elfie/internal/core"
	"elfie/internal/elfobj"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/pin"
	"elfie/internal/pinplay"
	"elfie/internal/vm"
)

// loopProg runs a two-thread loop whose 7-instruction body mixes batchable
// ops with a store and a load.
const loopProg = `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk+4096
	limm r3, body
	syscall
body:
	addi r5, r5, 1
	limm r4, cell
	st.q r5, [r4]
	ld.q r6, [r4]
	addi r7, r7, 2
	xor  r6, r6, r7
	jmp  body
	.data
cell: .quad 0
	.bss
stk: .space 4096
`

// regionELFie logs a region of loopProg and converts it into an ELFie whose
// graceful-exit perf counters stop each thread after its recorded length.
func regionELFie(t *testing.T) *elfobj.File {
	t.Helper()
	exe, err := asm.Program(loopProg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewLoaded(kernel.New(kernel.NewFS(), 1), exe, []string{"p"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000
	pb, err := pinplay.Log(m, pinplay.LogOptions{Name: "loop", RegionStart: 1000, RegionLength: 5003}.Fat())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Convert(pb, core.Options{GracefulExit: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Exe
}

func elfieMachine(t *testing.T, exe *elfobj.File) *vm.Machine {
	t.Helper()
	m, err := vm.NewLoaded(kernel.New(kernel.NewFS(), 7), exe, []string{"elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000
	return m
}

// TestOnBlockStreamELFie: on an ELFie whose perf counters end each thread
// inside a block, OnBlock alone keeps the VM on its block path, and each
// thread's flattened OnBlock stream is its OnIns stream from an identical
// interpreted run, summing to the thread's retired count.
func TestOnBlockStreamELFie(t *testing.T) {
	exe := regionELFie(t)

	mb := elfieMachine(t, exe)
	got := map[int][]uint64{}
	sums := map[int]uint64{}
	last := map[int]isa.Op{}
	longest := 0
	pin.NewEngine(mb).Attach(&pin.Tool{Name: "blocks", OnBlock: func(th *vm.Thread, ins []isa.DecInst, reps int) {
		for r := 0; r < reps; r++ {
			for i := range ins {
				got[th.TID] = append(got[th.TID], ins[i].PC())
			}
		}
		sums[th.TID] += uint64(reps * len(ins))
		last[th.TID] = ins[len(ins)-1].Op
		longest = max(longest, reps*len(ins))
	}})
	if mb.Hooks.OnIns != nil {
		t.Fatal("a tool with only OnBlock installed a per-instruction hook")
	}
	if err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	if longest < 2 {
		t.Error("no multi-instruction run reported: the block path was not taken")
	}

	mi := elfieMachine(t, exe)
	want := map[int][]uint64{}
	pin.NewEngine(mi).Attach(&pin.Tool{Name: "ins", OnIns: func(th *vm.Thread, r *vm.InsRecord) {
		want[th.TID] = append(want[th.TID], r.PC)
	}})
	if err := mi.Run(); err != nil {
		t.Fatal(err)
	}

	if len(mb.Threads) != 2 {
		t.Fatalf("ELFie ran %d threads, want 2", len(mb.Threads))
	}
	for _, th := range mb.Threads {
		pcs := th.PerfCounters()
		if th.Alive || len(pcs) != 1 || !pcs[0].Fired {
			t.Errorf("thread %d did not exit on its perf counter", th.TID)
		}
		if isa.IsBranch(last[th.TID]) {
			t.Errorf("thread %d: region ended on a block terminator, not inside a block", th.TID)
		}
		if sums[th.TID] != th.Retired {
			t.Errorf("thread %d: OnBlock runs sum to %d, retired %d", th.TID, sums[th.TID], th.Retired)
		}
		g, w := got[th.TID], want[th.TID]
		if len(g) != len(w) {
			t.Errorf("thread %d: %d instructions via OnBlock, %d via OnIns", th.TID, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("thread %d: streams differ at instruction %d: %#x vs %#x", th.TID, i, g[i], w[i])
				break
			}
		}
	}
}
