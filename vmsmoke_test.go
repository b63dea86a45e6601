// TestChainedFastPathSmoke is the in-repo perf regression tripwire for the
// chained execution core: on every workload the chained fast path must
// stay a fixed multiple faster than the reference interpreter, measured in
// the same run so the floor does not depend on the host.
//
// CI enforces the same invariant declaratively: grids/ci.json carries a
// min_ratio chained-vs-interp assertion evaluated by elfiebench. This test
// reads its floor from that assertion and goes through the identical grid
// cells, so `go test` alone catches the regression too. Absolute MIPS
// figures live in BENCH_vm.json, not here.
package elfie_test

import (
	"testing"

	"elfie/internal/grid"
	"elfie/internal/workloads"
)

// vmSmokeMIPS runs one grid vmcore cell with reps repeats and returns the
// best observed MIPS (best-of filters scheduler hiccups).
func vmSmokeMIPS(t *testing.T, workload, mode string, reps int) float64 {
	t.Helper()
	entry, ok := workloads.CorpusByName(workload)
	if !ok {
		t.Fatalf("corpus kernel %s missing", workload)
	}
	exp := &grid.Experiment{Name: "smoke", Kind: grid.KindVMCore}
	row := grid.Execute(&grid.Cell{
		ID:      "smoke/" + workload + "/" + mode + "/s1",
		Exp:     exp,
		Recipe:  entry.Recipe,
		Mode:    mode,
		Seed:    1,
		Repeats: reps,
	})
	if row.Status != "ok" {
		t.Fatalf("%s: exit %d: %s", row.ID, row.ExitCode, row.Error)
	}
	return row.MIPS.Max
}

// ciChainedFloor returns the chained-vs-interp min_ratio that grids/ci.json
// asserts.
func ciChainedFloor(t *testing.T) float64 {
	t.Helper()
	spec, err := grid.Load("grids/ci.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range spec.Experiments {
		for _, a := range e.Asserts {
			if a.Type == "min_ratio" && a.Mode == "chained" && a.Vs == "interp" {
				return a.Ratio
			}
		}
	}
	t.Fatal("grids/ci.json has no chained-vs-interp min_ratio assert")
	return 0
}

func TestChainedFastPathSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke is not meaningful under -short")
	}
	floor := ciChainedFloor(t)
	for _, workload := range []string{"decode_heavy", "mem_stream", "syscall_dense"} {
		chained := vmSmokeMIPS(t, workload, "chained", 3)
		interp := vmSmokeMIPS(t, workload, "interp", 3)
		t.Logf("%s: chained %.0f MIPS, interp %.0f MIPS (%.2fx)",
			workload, chained, interp, chained/interp)
		if chained < floor*interp {
			t.Errorf("%s: chained fast path (%.0f MIPS) fell below %.2fx the interpreter (%.0f MIPS)",
				workload, chained, floor, interp)
		}
	}
}
