package bbv

import (
	"math/rand"
	"reflect"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/vm"
)

func collect(t *testing.T, src string, sliceSize uint64) (*Profile, *vm.Machine) {
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
	m.MaxInstructions = 10_000_000
	p, err := Collect(m, sliceSize)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestBlockDetection(t *testing.T) {
	// Two alternating loops with distinct bodies: the profile must contain
	// blocks for both loops, with the right weights.
	p, m := collect(t, `
	.text
	.global _start
_start:
	movi r8, 0
loopA:
	addi r1, r1, 1
	addi r8, r8, 1
	cmpi r8, 1000
	jnz  loopA
	movi r8, 0
loopB:
	muli r2, r2, 3
	addi r2, r2, 1
	addi r8, r8, 1
	cmpi r8, 1000
	jnz  loopB
	movi r0, 231
	movi r1, 0
	syscall
`, 1_000_000)
	if len(p.Slices) != 1 {
		t.Fatalf("slices: %d", len(p.Slices))
	}
	if p.TotalInstructions != m.GlobalRetired {
		t.Errorf("profiled %d, retired %d", p.TotalInstructions, m.GlobalRetired)
	}
	sl := p.Slices[0]
	var total uint64
	var loopWeights []uint64
	for _, c := range sl {
		total += uint64(c)
		if c >= 1000 {
			loopWeights = append(loopWeights, uint64(c))
		}
	}
	if total != p.TotalInstructions {
		t.Errorf("slice weight %d != %d", total, p.TotalInstructions)
	}
	// loopA body: 4 instructions x 999 iterations entered via the taken
	// back-edge (the first iteration belongs to the entry block, which is
	// a fall-through); loopB: 5 x 999.
	has4k, has5k := false, false
	for _, w := range loopWeights {
		if w == 4*999 {
			has4k = true
		}
		if w == 5*999 {
			has5k = true
		}
	}
	if !has4k || !has5k {
		t.Errorf("loop block weights: %v", loopWeights)
	}
}

func TestSliceBoundaries(t *testing.T) {
	p, _ := collect(t, `
	.text
	.global _start
_start:
	movi r8, 0
l:	addi r8, r8, 1
	cmpi r8, 40000
	jnz  l
	movi r0, 231
	movi r1, 0
	syscall
`, 25_000)
	// ~120k instructions -> 4 full slices + remainder.
	if len(p.Slices) < 4 {
		t.Fatalf("slices: %d", len(p.Slices))
	}
	for i, sl := range p.Slices[:len(p.Slices)-1] {
		var sum uint64
		for _, c := range sl {
			sum += uint64(c)
		}
		if sum != 25_000 {
			t.Errorf("slice %d weight %d", i, sum)
		}
	}
}

func TestOnlyThreadZeroProfiled(t *testing.T) {
	p, m := collect(t, `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk+4096
	limm r3, w
	syscall
	movi r8, 0
a:	addi r8, r8, 1
	cmpi r8, 20000
	jnz  a
	movi r0, 60
	syscall
w:	movi r8, 0
b:	addi r8, r8, 1
	cmpi r8, 20000
	jnz  b
	movi r0, 60
	syscall
	.bss
stk: .space 4096
`, 1_000_000)
	if p.TotalInstructions >= m.GlobalRetired {
		t.Errorf("profiled %d of %d: worker thread leaked into the profile",
			p.TotalInstructions, m.GlobalRetired)
	}
	if p.TotalInstructions < 60_000 {
		t.Errorf("thread 0 profile too small: %d", p.TotalInstructions)
	}
}

// TestRunsMatchPerInstruction: feeding the collector whole runs — repeated
// ones included, entered after a branch or after a fall-through — gives the
// profile that feeding the same instructions one at a time gives, at slice
// sizes that split runs and passes.
func TestRunsMatchPerInstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	th := &vm.Thread{TID: 0}
	ops := []isa.Op{isa.ADDI, isa.ADDI, isa.STQ, isa.CMPI, isa.JNZ, isa.CALL}
	for _, size := range []uint64{1, 7, 64, 1000} {
		bulk, single := NewCollector(size), NewCollector(size)
		for n := 0; n < 300; n++ {
			ins := make([]isa.DecInst, 1+rng.Intn(12))
			pc := uint64(0x1000 + 8*rng.Intn(64))
			for i := range ins {
				ins[i] = isa.DecInst{Op: ops[rng.Intn(len(ops))], Next: pc + 8*uint64(i+1)}
			}
			reps := 1
			if rng.Intn(3) == 0 {
				reps = 1 + rng.Intn(40)
			}
			bulk.block(th, ins, reps)
			for r := 0; r < reps; r++ {
				for i := range ins {
					single.block(th, ins[i:i+1], 1)
				}
			}
		}
		pb, ps := bulk.Finish(), single.Finish()
		if !reflect.DeepEqual(pb, ps) {
			t.Errorf("slice %d: run-fed profile (%d slices) differs from instruction-fed (%d slices)",
				size, len(pb.Slices), len(ps.Slices))
		}
	}
}
