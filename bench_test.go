// Benchmarks that probe the record/replay substrate directly rather than
// going through grid cells: harness session reuse and the DESIGN.md §4
// design-choice ablations. The paper's tables and figures are regenerated
// by `elfiebench -grid grids/paper.json` (reduced scale) or
// grids/paper-full.json (paper scale); see EXPERIMENTS.md.
//
//	go test -run '^$' -bench . -benchtime 1x .
package elfie_test

import (
	"fmt"
	"testing"

	"elfie/internal/core"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/pinpoints"
	"elfie/internal/workloads"
)

// trim shortens a recipe's phase script to its first keep phases.
func trim(r workloads.Recipe, keep int) workloads.Recipe {
	if len(r.Sequence) <= keep {
		return r
	}
	r.Sequence = r.Sequence[:keep]
	return r
}

func mustRecipe(b *testing.B, name string) workloads.Recipe {
	b.Helper()
	r, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("recipe %s missing", name)
	}
	return r
}

// -----------------------------------------------------------------------
// Session reuse — building a region ELFie's session vs resetting one
// (DESIGN.md §11). Validation builds a fresh session per measurement;
// Reset serves the grid's repeated runs of one recipe.
// -----------------------------------------------------------------------

func BenchmarkSessionReuse(b *testing.B) {
	r := trim(workloads.TrainIntRate()[1], 8)
	bm, err := pinpoints.Prepare(r, pinpoints.Config{
		SliceSize: 100_000, WarmupSize: 400_000, MaxK: 10,
		Seed: 1, UseSysState: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := bm.Regions[0]
	b.Run("fresh-construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bm.ELFieSession(reg, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-reset", func(b *testing.B) {
		s, err := bm.ELFieSession(reg, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Reset(int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// -----------------------------------------------------------------------
// Ablations (DESIGN.md §4).
// -----------------------------------------------------------------------

func BenchmarkAblation_FatVsRegularPinballs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Println("\n=== Ablation: fat vs regular pinballs ===")
		r := trim(mustRecipe(b, "605.mcf_t"), 10)
		log := func(fat bool) *pinball.Pinball {
			m := recipeLoader(b, r, 1)()
			opts := pinplay.LogOptions{Name: "a", RegionStart: 200_000, RegionLength: 300_000}
			if fat {
				opts = opts.Fat()
			}
			pb, err := pinplay.Log(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			return pb
		}
		fat := log(true)
		reg := log(false)
		fmt.Printf("fat pinball:     %6d KiB image, %4d extents\n", fat.ImageBytes()>>10, len(fat.Pages))
		fmt.Printf("regular pinball: %6d KiB image, %4d extents (%.1fx smaller)\n",
			reg.ImageBytes()>>10, len(reg.Pages),
			float64(fat.ImageBytes())/float64(reg.ImageBytes()))
		// Both replay; only the fat one is convertible by default.
		for _, pb := range []*pinball.Pinball{fat, reg} {
			res, err := pinplay.Replay(pb, kernel.New(kernel.NewFS(), 2), pinplay.ReplayOptions{Injection: true})
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("replay fat=%-5v completed=%v\n", pb.Meta.Fat, res.Completed)
		}
		if _, err := core.Convert(reg, core.Options{}); err == nil {
			b.Fatal("pinball2elf accepted a non-fat pinball")
		} else {
			fmt.Printf("pinball2elf on regular pinball: %v\n", err)
		}
	}
}

func BenchmarkAblation_InjectionlessReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Println("\n=== Ablation: -replay:injection 0 as an ELFie-failure oracle ===")
		r := mustRecipe(b, "600.perlbench_t") // FileInput recipe
		// Search for a region that contains reads through the pre-region
		// descriptor, so the injection-less oracle has state to miss.
		var pb *pinball.Pinball
		for start := uint64(100_000); start < 4_000_000; start += 300_000 {
			m := recipeLoader(b, r, 1)()
			cand, err := pinplay.Log(m, pinplay.LogOptions{
				Name: "inj", RegionStart: start, RegionLength: 400_000,
			}.Fat())
			if err != nil {
				break // program ended before this start
			}
			for _, e := range cand.Syscalls {
				if e.Num == kernel.SysRead && int64(e.Args[0]) > 2 {
					pb = cand
					break
				}
			}
			if pb != nil {
				break
			}
		}
		if pb == nil {
			b.Fatal("no region with pre-region descriptor reads found")
		}
		// Injected replay completes even without the input file.
		ri, err := pinplay.Replay(pb, kernel.New(kernel.NewFS(), 2), pinplay.ReplayOptions{Injection: true})
		if err != nil {
			b.Fatal(err)
		}
		// Injection-less replay against an empty filesystem mimics the
		// ELFie's native system-call behaviour.
		r0, err := pinplay.Replay(pb, kernel.New(kernel.NewFS(), 2), pinplay.ReplayOptions{Injection: false})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("injection=1: completed=%v  injected=%d syscalls\n", ri.Completed, ri.InjectedSyscalls)
		fmt.Printf("injection=0: completed=%v  (predicts whether the ELFie needs SYSSTATE)\n", r0.Completed)
	}
}
