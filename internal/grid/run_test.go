package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elfie/internal/cli"
	"elfie/internal/results"
	"elfie/internal/workloads"
)

// vmSpec builds a vmcore spec over the named workloads, chained mode only.
func vmSpec(name string, workloadNames ...string) *Spec {
	return &Spec{
		Name: name,
		Experiments: []Experiment{{
			Name:      "vm",
			Kind:      KindVMCore,
			Workloads: workloadNames,
			Modes:     []string{"chained"},
		}},
	}
}

// TestCellFailureIsolation: a failing cell becomes a recorded failure row
// with its taxonomy code, and the rest of the grid still runs.
func TestCellFailureIsolation(t *testing.T) {
	spec := &Spec{
		Name: "iso",
		Experiments: []Experiment{
			{
				// A 1000-instruction budget cannot finish decode_heavy, so
				// this cell fails its clean-exit check.
				Name: "bad", Kind: KindVMCore, Workloads: []string{"decode_heavy"},
				Modes: []string{"chained"}, Budget: 1000,
			},
			{
				Name: "good", Kind: KindVMCore, Workloads: []string{"syscall_dense"},
				Modes: []string{"chained"},
			},
		},
	}
	r := &Runner{Spec: spec, OutDir: t.TempDir(), Jobs: 2}
	rr, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Report.Cells) != 2 {
		t.Fatalf("report covers %d cells, want 2", len(rr.Report.Cells))
	}
	if len(rr.Failures) != 1 {
		t.Fatalf("got %d failures, want exactly 1: %+v", len(rr.Failures), rr.Failures)
	}
	bad := rr.Failures[0]
	if bad.Workload != "decode_heavy" || bad.Status != "failed" {
		t.Fatalf("wrong failure row: %+v", bad)
	}
	if bad.ExitCode != cli.ExitInternal {
		t.Fatalf("failure exit code = %d, want %d", bad.ExitCode, cli.ExitInternal)
	}
	if !strings.Contains(bad.Error, "did not finish") {
		t.Fatalf("failure row error = %q", bad.Error)
	}
	for _, c := range rr.Report.Cells {
		if c.Workload == "syscall_dense" {
			if c.Status != "ok" || c.MIPS.Max <= 0 {
				t.Fatalf("healthy cell dragged down by its neighbour: %+v", c)
			}
		}
	}
	if rr.ExitCode() != cli.ExitInternal {
		t.Fatalf("run exit code = %d, want %d", rr.ExitCode(), cli.ExitInternal)
	}
	// The failure row is persisted like any other, so resumed runs and
	// report readers see it.
	buf, err := os.ReadFile(filepath.Join(r.OutDir, "cells", "bad_decode_heavy_chained_s1.json"))
	if err != nil {
		t.Fatalf("failure row not persisted: %v", err)
	}
	if !strings.Contains(string(buf), `"failed"`) {
		t.Fatalf("persisted row does not record the failure: %s", buf)
	}
}

// TestExecuteExitTaxonomy: Execute degrades every misbehaviour to a row
// carrying the shared exit-code taxonomy.
func TestExecuteExitTaxonomy(t *testing.T) {
	exp := &Experiment{Name: "x", Kind: "warp"}
	row := Execute(&Cell{ID: "x/w", Exp: exp, Recipe: workloads.Recipe{Name: "w"}, Repeats: 1})
	if row.Status != "failed" || row.ExitCode != cli.ExitCorruptInput {
		t.Fatalf("unknown kind: status %s exit %d, want failed/%d", row.Status, row.ExitCode, cli.ExitCorruptInput)
	}

	exp = &Experiment{Name: "x", Kind: KindVMCore}
	row = Execute(&Cell{
		ID: "x/bad", Exp: exp, Mode: "chained", Repeats: 1,
		Recipe: workloads.Recipe{Name: "bad", Asm: "this is not assembly\n", ApproxInstr: 1},
	})
	if row.Status != "failed" || row.ExitCode != cli.ExitInternal {
		t.Fatalf("broken recipe: status %s exit %d, want failed/%d", row.Status, row.ExitCode, cli.ExitInternal)
	}

	// A panicking cell is recovered into a failure row, not a crashed grid.
	testPanic = func() { panic("boom") }
	defer func() { testPanic = nil }()
	row = Execute(&Cell{ID: "x/p", Exp: exp, Mode: "chained", Repeats: 1,
		Recipe: workloads.Recipe{Name: "w"}})
	if row.Status != "failed" || row.ExitCode != cli.ExitInternal {
		t.Fatalf("panic: status %s exit %d", row.Status, row.ExitCode)
	}
	if !strings.Contains(row.Error, "cell panicked: boom") {
		t.Fatalf("panic not recorded: %q", row.Error)
	}
}

func TestRunResultExitCodeFolds(t *testing.T) {
	rr := &RunResult{Failures: []results.Cell{{ExitCode: 1}, {ExitCode: 3}}}
	if rr.ExitCode() != 3 {
		t.Fatalf("max failure code not picked: %d", rr.ExitCode())
	}
	rr = &RunResult{AssertFailures: []AssertFailure{{Message: "m"}}}
	if rr.ExitCode() != 1 {
		t.Fatalf("assert failures alone must exit 1, got %d", rr.ExitCode())
	}
	if (&RunResult{}).ExitCode() != 0 {
		t.Fatal("clean run must exit 0")
	}
}

// TestRepeatAggregation: a multi-repeat cell aggregates exactly per
// results.Aggregate over its recorded samples.
func TestRepeatAggregation(t *testing.T) {
	exp := &Experiment{Name: "vm", Kind: KindVMCore}
	row := Execute(&Cell{
		ID: "vm/syscall_dense/chained/s1", Exp: exp, Mode: "chained",
		Seed: 1, Repeats: 3, Recipe: mustCorpus(t, "syscall_dense"),
	})
	if row.Status != "ok" {
		t.Fatalf("cell failed: %s", row.Error)
	}
	if len(row.Samples) != 3 {
		t.Fatalf("got %d samples, want 3 repeats", len(row.Samples))
	}
	var mips []float64
	for _, s := range row.Samples {
		mips = append(mips, s.MIPS)
	}
	want := results.Aggregate(mips)
	if row.MIPS != want {
		t.Fatalf("MIPS stats %+v, want Aggregate(samples) %+v", row.MIPS, want)
	}
	if row.MIPS.N != 3 || row.MIPS.Min > row.MIPS.Mean || row.MIPS.Mean > row.MIPS.Max {
		t.Fatalf("implausible stats: %+v", row.MIPS)
	}
}

func mustCorpus(t *testing.T, name string) workloads.Recipe {
	t.Helper()
	e, ok := workloads.CorpusByName(name)
	if !ok {
		t.Fatalf("no corpus entry %s", name)
	}
	return e.Recipe
}

// TestResumeAfterCrash: a cell's persisted row is its completion proof, so
// a run killed mid-grid — modelled as an out directory where one finished
// row is missing and another is torn — resumes by re-running exactly those
// two cells. A cell whose row cannot be written still shows up in the
// report, as a synthesized failure row.
func TestResumeAfterCrash(t *testing.T) {
	out := t.TempDir()
	spec := vmSpec("crash", "decode_heavy", "mem_stream", "syscall_dense", "sys.dense")
	var log bytes.Buffer
	run := func() *RunResult {
		t.Helper()
		log.Reset()
		rr, err := (&Runner{Spec: spec, OutDir: out, Jobs: 1, Resume: true, Log: &log}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	ran := func() (ids []string) {
		for _, line := range strings.Split(log.String(), "\n") {
			if id, ok := strings.CutPrefix(line, "run  "); ok {
				ids = append(ids, id)
			}
		}
		return ids
	}

	if rr, err := (&Runner{Spec: spec, OutDir: out, Jobs: 1}).Run(); err != nil || rr.Executed != 4 {
		t.Fatalf("fresh run: %v, want all 4 cells executed", err)
	}
	cells, err := spec.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{OutDir: out}
	byWorkload := map[string]*Cell{}
	for i := range cells {
		byWorkload[cells[i].Recipe.Name] = &cells[i]
	}
	lost, torn := byWorkload["decode_heavy"], byWorkload["mem_stream"]
	if err := os.Remove(r.cellPath(lost)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(r.cellPath(torn), 40); err != nil {
		t.Fatal(err)
	}

	rr := run()
	if got, want := strings.Join(ran(), ","), lost.ID+","+torn.ID; got != want {
		t.Fatalf("resume re-ran %q, want exactly %q", got, want)
	}
	if rr.Executed != 2 || rr.Counters.Cached != 2 {
		t.Fatalf("resume executed %d and cached %d cells, want 2 and 2", rr.Executed, rr.Counters.Cached)
	}
	if len(rr.Failures) != 0 || len(rr.Report.Cells) != 4 {
		t.Fatalf("resumed report: %d cells, failures %+v", len(rr.Report.Cells), rr.Failures)
	}
	for _, c := range rr.Report.Cells {
		if c.Status != "ok" || c.MIPS.Max <= 0 {
			t.Fatalf("resumed cell not healthy: %+v", c)
		}
	}

	// A directory where a row belongs: the cell re-runs, its row cannot be
	// published, and the report still covers the full grid.
	blocked := byWorkload["syscall_dense"]
	path := r.cellPath(blocked)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	rr = run()
	if got := strings.Join(ran(), ","); got != blocked.ID {
		t.Fatalf("resume re-ran %q, want only %q", got, blocked.ID)
	}
	if len(rr.Report.Cells) != 4 || len(rr.Failures) != 1 || rr.Failures[0].Workload != "syscall_dense" ||
		rr.Failures[0].Error == "" {
		t.Fatalf("unwritable row: report has %d cells, failures %+v", len(rr.Report.Cells), rr.Failures)
	}

	// A fresh (non-resume) run distrusts all prior state and re-runs
	// everything.
	os.RemoveAll(path)
	rr3, err := (&Runner{Spec: spec, OutDir: out, Jobs: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr3.Executed != 4 {
		t.Fatalf("fresh run executed %d cells, want all 4", rr3.Executed)
	}
}

// TestResumeRejectsChangedGrid: -resume reuses rows only under the spec and
// repeats override that wrote them. A changed -repeats or grid, or a
// missing grid.json stamp, fails as corrupt input naming the out dir.
func TestResumeRejectsChangedGrid(t *testing.T) {
	out := t.TempDir()
	run := func(repeats int, budget uint64, resume bool) error {
		spec := vmSpec("stamp", "syscall_dense")
		spec.Experiments[0].Budget = budget
		_, err := (&Runner{Spec: spec, OutDir: out, Jobs: 1, Repeats: repeats, Resume: resume}).Run()
		return err
	}
	if err := run(1, 0, false); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		repeats int
		budget  uint64
		unstamp bool
	}{{3, 0, false}, {1, 1_000_000, false}, {1, 0, true}} {
		if tc.unstamp {
			os.Remove(filepath.Join(out, "grid.json"))
		}
		if err := run(tc.repeats, tc.budget, true); !errors.Is(err, cli.ErrCorruptInput) || !strings.Contains(err.Error(), out) {
			t.Fatalf("resume %+v: %v, want corrupt input naming %s", tc, err, out)
		}
	}
}

// TestRunnerEmitArtifacts: Emit writes report.json + results.csv, and when
// the spec opts in, BENCH_vm.json as the report itself plus one history
// entry.
func TestRunnerEmitArtifacts(t *testing.T) {
	out := t.TempDir()
	spec := vmSpec("emit", "syscall_dense")
	spec.EmitVMBench = true
	spec.VMBenchPath = filepath.Join(out, "BENCH_vm.json")
	spec.VMHistoryPath = filepath.Join(out, "BENCH_vm_history.json")
	r := &Runner{Spec: spec, OutDir: out, Jobs: 1}
	rr, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Emit(rr); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"report.json", "results.csv"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
	buf, err := os.ReadFile(spec.VMBenchPath)
	if err != nil {
		t.Fatalf("BENCH_vm.json not written: %v", err)
	}
	var rep results.Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != results.SchemaVersion || len(rep.Cells) != 1 || rep.Cells[0].Mode != "chained" {
		t.Fatalf("BENCH_vm.json is not the run's report: %s", buf)
	}
	var hist []results.Report
	hbuf, err := os.ReadFile(spec.VMHistoryPath)
	if err != nil {
		t.Fatalf("history not written: %v", err)
	}
	if err := json.Unmarshal(hbuf, &hist); err != nil || len(hist) != 1 || hist[0].Timestamp == "" {
		t.Fatalf("history = %d entries (err %v): %s", len(hist), err, hbuf)
	}
}

// TestEmitKeepsCorruptHistory: a BENCH_vm_history.json that does not parse
// fails Emit with an error naming it, and neither BENCH_vm file changes.
func TestEmitKeepsCorruptHistory(t *testing.T) {
	out := t.TempDir()
	spec := vmSpec("emit", "syscall_dense")
	spec.EmitVMBench = true
	spec.VMBenchPath = filepath.Join(out, "BENCH_vm.json")
	spec.VMHistoryPath = filepath.Join(out, "BENCH_vm_history.json")
	corrupt := []byte("[{\"timestamp\": \"2026-08-08T09:10:48Z\", \"results\": [\n")
	if err := os.WriteFile(spec.VMHistoryPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	rr := &RunResult{Report: results.New("emit")}
	rr.Report.Cells = []results.Cell{{
		ID: "vm/syscall_dense/chained/s1", Experiment: "vm", Kind: KindVMCore,
		Workload: "syscall_dense", Mode: "chained", Seed: 1, Status: "ok",
		Samples: []results.Sample{{Instructions: 1000, Seconds: 1e-5, MIPS: 100}},
	}}
	rr.Report.Cells[0].Finalize()
	r := &Runner{Spec: spec, OutDir: out}
	err := r.Emit(rr)
	if err == nil || !strings.Contains(err.Error(), spec.VMHistoryPath) {
		t.Fatalf("Emit over a corrupt history = %v, want an error naming %s", err, spec.VMHistoryPath)
	}
	if buf, _ := os.ReadFile(spec.VMHistoryPath); !bytes.Equal(buf, corrupt) {
		t.Errorf("corrupt history rewritten to %q", buf)
	}
	if _, err := os.Stat(spec.VMBenchPath); !os.IsNotExist(err) {
		t.Errorf("BENCH_vm.json written despite the failed history append (stat: %v)", err)
	}
}

// TestEvaluateAsserts: declarative assertions over a synthetic report.
func TestEvaluateAsserts(t *testing.T) {
	spec := &Spec{
		Experiments: []Experiment{
			{
				Name: "vm", Kind: KindVMCore, Workloads: []string{"decode_heavy"},
				Asserts: []Assert{{Type: "min_ratio", Mode: "chained", Vs: "interp", Ratio: 2}},
			},
			{
				Name: "val", Kind: KindValidate, Workloads: []string{"sys.dense"},
				Asserts: []Assert{{Type: "max_abs_err_pct", LimitPct: 10}},
			},
		},
	}
	r := &Runner{Spec: spec}
	rep := results.New("t")
	rep.Cells = []results.Cell{
		{Experiment: "vm", Kind: KindVMCore, Workload: "w", Mode: "chained", Status: "ok",
			MIPS: results.Stats{Max: 200}},
		{Experiment: "vm", Kind: KindVMCore, Workload: "w", Mode: "interp", Status: "ok",
			MIPS: results.Stats{Max: 50}},
		{Experiment: "val", Kind: KindValidate, Workload: "v", Status: "ok",
			PredErr: results.Stats{Mean: -4}},
	}
	if fails := r.evaluateAsserts(rep); len(fails) != 0 {
		t.Fatalf("healthy report failed asserts: %+v", fails)
	}

	// Chained collapsing below the ratio trips the tripwire.
	rep.Cells[0].MIPS.Max = 50
	fails := r.evaluateAsserts(rep)
	if len(fails) != 1 || fails[0].Experiment != "vm" || !strings.Contains(fails[0].Message, "min_ratio") {
		t.Fatalf("ratio collapse not caught: %+v", fails)
	}
	rep.Cells[0].MIPS.Max = 200

	// |mean error| over the limit fails, sign-independent.
	rep.Cells[2].PredErr.Mean = -11
	fails = r.evaluateAsserts(rep)
	if len(fails) != 1 || fails[0].Experiment != "val" {
		t.Fatalf("error envelope not enforced: %+v", fails)
	}

	// A missing mode measurement is itself an assertion failure, not a
	// silent pass.
	rep.Cells[2].PredErr.Mean = -4
	rep.Cells = rep.Cells[:1]
	fails = r.evaluateAsserts(rep)
	if len(fails) != 1 || !strings.Contains(fails[0].Message, "missing measurements") {
		t.Fatalf("missing baseline not caught: %+v", fails)
	}
}
