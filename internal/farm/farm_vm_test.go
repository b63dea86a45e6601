package farm_test

import (
	"fmt"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/farm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/vm"
)

// TestFarmChainedVMs runs a -j8 farm where every job is a full VM
// execution on the chained fast path — tight self-loops that loop mode
// batches, plus a syscall so the inline syscall fast path fires too.
// Eight interpreters retiring chained superblocks concurrently is the
// production shape of a region farm; under `go test -race` this is the
// data-race guard for the chaining machinery (block caches, page
// generation clocks, TLB heads are all per-machine and must stay so).
func TestFarmChainedVMs(t *testing.T) {
	const jobs = 16
	type out struct {
		retired uint64
		acc     uint64
	}
	results := make([]out, jobs)

	f := farm.New(8)
	for i := 0; i < jobs; i++ {
		i := i
		iters := 20000 + 1000*i
		src := fmt.Sprintf(`
	.text
	.global _start
_start:
	limm r1, %d
loop:
	addi r2, r2, 1
	add  r3, r3, r2
	xor  r4, r4, r3
	cmp  r2, r1
	jnz  loop
	movi r0, 39          # getpid, retires on the inline fast path
	syscall
	mov  r1, r3
	andi r1, r1, 127
	movi r0, 231         # exit_group
	syscall
`, iters)
		f.Add(&farm.Job{
			ID:    fmt.Sprintf("vm-%d", i),
			Stage: "run",
			Run: func() error {
				exe, err := asm.Program(src)
				if err != nil {
					return err
				}
				k := kernel.New(kernel.NewFS(), int64(i))
				m, err := vm.NewLoaded(k, exe, []string{"job"}, nil)
				if err != nil {
					return err
				}
				m.MaxInstructions = 10_000_000
				if err := m.Run(); err != nil {
					return err
				}
				if !m.Halted {
					return fmt.Errorf("job %d did not halt", i)
				}
				results[i] = out{
					retired: m.GlobalRetired,
					acc:     m.Threads[0].Regs.GPR[isa.R4],
				}
				return nil
			},
		})
	}
	oc := f.Run()
	if oc.Counters.Failed != 0 || oc.Counters.Run != jobs {
		t.Fatalf("farm counters: %s", oc.Counters.String())
	}

	// Every chained run must match a sequential slow-path reference.
	for i := 0; i < jobs; i++ {
		iters := uint64(20000 + 1000*i)
		// 1 limm + 5 per iteration + 6 tail ops (getpid + mov/andi + exit).
		wantRetired := 1 + 5*iters + 6
		if results[i].retired != wantRetired {
			t.Errorf("job %d retired %d, want %d", i, results[i].retired, wantRetired)
		}
		var acc, sum uint64
		for n := uint64(1); n <= iters; n++ {
			sum += n
			acc ^= sum
		}
		if results[i].acc != acc {
			t.Errorf("job %d accumulator %#x, want %#x", i, results[i].acc, acc)
		}
	}
}
