// elfiebench runs a declarative experiment grid: workloads × modes × jobs
// × fault rates × seeds, with repeats, through the harness, and emits one
// schema-versioned report (JSON + CSV + summary table). A grid that sets
// emit_vm_bench also writes that report to BENCH_vm.json and appends it,
// timestamped, to BENCH_vm_history.json.
//
//	elfiebench -grid grids/ci.json -repeats 1
//	elfiebench -grid grids/vm.json                 # regenerates BENCH_vm.json
//	elfiebench -grid grids/paper.json -out out/paper
//	elfiebench -grid grids/paper.json -out out/paper -resume   # after SIGKILL
//	elfiebench -grid grids/paper-full.json -out out/paper-full # paper scale
//
// Exit codes follow the shared taxonomy: 0 ok, 1 internal error or failed
// assertion, 2 corrupt grid file, 3 divergence recorded by a cell.
package main

import (
	"flag"
	"fmt"
	"os"

	"elfie/internal/cli"
	"elfie/internal/grid"
)

func main() {
	gridPath := flag.String("grid", "", "grid spec (JSON), required")
	out := flag.String("out", "out", "output directory (journal, cells, report)")
	jobs := flag.Int("j", 0, "grid worker count (0 = GOMAXPROCS)")
	repeats := flag.Int("repeats", 0, "override per-cell repeats (0 = grid's values)")
	resume := flag.Bool("resume", false, "resume a crashed run from its journal")
	quiet := flag.Bool("q", false, "suppress per-cell progress")
	noSummary := flag.Bool("no-summary", false, "skip the summary table on stdout")
	flag.Parse()
	if *gridPath == "" {
		fmt.Fprintln(os.Stderr, "usage: elfiebench -grid <file> [-out dir] [-j N] [-repeats N] [-resume]")
		os.Exit(cli.ExitInternal)
	}

	spec, err := grid.Load(*gridPath)
	if err != nil {
		cli.DieClassified(err)
	}
	r := &grid.Runner{
		Spec:    spec,
		Jobs:    *jobs,
		Repeats: *repeats,
		OutDir:  *out,
		Resume:  *resume,
	}
	if !*quiet {
		r.Log = os.Stderr
	}
	rr, err := r.Run()
	if err != nil {
		cli.DieClassified(err)
	}
	if err := r.Emit(rr); err != nil {
		cli.DieClassified(err)
	}
	if !*noSummary {
		if err := rr.Report.WriteSummary(os.Stdout); err != nil {
			cli.DieClassified(err)
		}
	}
	fmt.Fprintf(os.Stderr, "grid %s: %d cells (%d executed, %d resumed), %d failed, %d assertion failures\n",
		spec.Name, len(rr.Report.Cells), rr.Executed,
		len(rr.Report.Cells)-rr.Executed, len(rr.Failures), len(rr.AssertFailures))
	for _, af := range rr.AssertFailures {
		fmt.Fprintf(os.Stderr, "ASSERT %s/%s: %s\n", af.Experiment, af.Workload, af.Message)
	}
	os.Exit(rr.ExitCode())
}
