package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"elfie/internal/cli"
	"elfie/internal/farm"
	"elfie/internal/results"
	"elfie/internal/store"
)

// Runner executes a grid spec.
type Runner struct {
	Spec *Spec
	// Jobs is the grid-level worker count (-j); 0 = GOMAXPROCS.
	Jobs int
	// Repeats, when > 0, overrides every cell's repeat count.
	Repeats int
	// OutDir holds the per-cell rows and the final report artifacts.
	OutDir string
	// Resume reuses the rows persisted in OutDir: a cell whose row parses
	// is not re-run. It refuses an OutDir whose grid.json stamp does not
	// match Spec and Repeats. Without Resume, the out directory's rows are
	// cleared first.
	Resume bool
	// Log receives progress lines (nil = quiet).
	Log io.Writer
}

// AssertFailure is one failed grid assertion.
type AssertFailure struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	Message    string `json:"message"`
}

// RunResult is a finished grid run.
type RunResult struct {
	Report *results.Report
	// Failures lists cells that degraded to failure rows.
	Failures []results.Cell
	// AssertFailures lists failed declarative assertions.
	AssertFailures []AssertFailure
	// Executed counts cells actually run this invocation (excludes ones
	// resumed from their rows) — the "zero re-run" resume guarantee is
	// checked against this.
	Executed int
	Counters farm.Counters
}

// ExitCode folds the run into the shared exit taxonomy: the highest cell
// failure code, or 1 for assertion failures, or 0.
func (rr *RunResult) ExitCode() int {
	code := 0
	for _, c := range rr.Failures {
		if c.ExitCode > code {
			code = c.ExitCode
		}
	}
	if code == 0 && len(rr.AssertFailures) > 0 {
		code = 1
	}
	return code
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// cellPath is where a cell's finished row is persisted. The row is both the
// cell's result and its completion proof: it is published whole (synced,
// then renamed into place), so a row that parses belongs to a cell that
// finished, and resume re-runs exactly the cells without one.
func (r *Runner) cellPath(c *Cell) string {
	return filepath.Join(r.OutDir, "cells", c.FileID()+".json")
}

func (r *Runner) loadRow(c *Cell) (results.Cell, bool) {
	buf, err := os.ReadFile(r.cellPath(c))
	if err != nil {
		return results.Cell{}, false
	}
	var row results.Cell
	if err := json.Unmarshal(buf, &row); err != nil {
		return results.Cell{}, false
	}
	return row, true
}

func (r *Runner) saveRow(c *Cell, row *results.Cell) error {
	buf, err := json.MarshalIndent(row, "", "  ")
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(r.cellPath(c), append(buf, '\n'))
}

// Run expands, executes, aggregates, and asserts.
func (r *Runner) Run() (*RunResult, error) {
	cells, err := r.Spec.Cells(r.Repeats)
	if err != nil {
		return nil, err
	}
	if r.OutDir == "" {
		r.OutDir = "out"
	}
	cellDir := filepath.Join(r.OutDir, "cells")
	stamp, err := json.MarshalIndent(struct {
		Spec    *Spec
		Repeats int
	}{r.Spec, r.Repeats}, "", "  ")
	if err != nil {
		return nil, err
	}
	stampPath := filepath.Join(r.OutDir, "grid.json")
	if !r.Resume {
		// A fresh run never trusts stale state.
		os.RemoveAll(cellDir)
	} else if old, err := os.ReadFile(stampPath); err != nil || !bytes.Equal(old, stamp) {
		return nil, fmt.Errorf("%w: cannot resume %s: its grid.json is missing or records a different grid or -repeats",
			cli.ErrCorruptInput, r.OutDir)
	}
	if err := os.MkdirAll(cellDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stampPath, stamp, 0o644); err != nil {
		return nil, err
	}
	rr := &RunResult{Report: results.New(r.Spec.Name)}
	f := farm.New(r.Jobs)
	executed := make([]bool, len(cells))
	for i := range cells {
		c := &cells[i]
		i := i
		if err := f.Add(&farm.Job{
			ID:    c.ID,
			Stage: c.Exp.Name,
			Probe: func() bool {
				_, ok := r.loadRow(c)
				return ok
			},
			Run: func() error {
				executed[i] = true
				r.logf("run  %s", c.ID)
				row := Execute(c)
				if row.Status == "failed" {
					r.logf("FAIL %s: exit %d: %s", c.ID, row.ExitCode, row.Error)
				}
				return r.saveRow(c, &row)
			},
		}); err != nil {
			return nil, err
		}
	}
	outcome := f.Run()
	rr.Counters = outcome.Counters
	for _, done := range executed {
		if done {
			rr.Executed++
		}
	}

	// Aggregate: every cell's persisted row, in expansion order. A cell
	// with no row (its write failed) is recorded as an internal failure so
	// the report always covers the full grid.
	for i := range cells {
		c := &cells[i]
		row, ok := r.loadRow(c)
		if !ok {
			res := outcome.Results[c.ID]
			msg := "cell did not run"
			if res != nil && res.Err != nil {
				msg = res.Err.Error()
			}
			row = results.Cell{
				ID: c.ID, Experiment: c.Exp.Name, Kind: c.Exp.Kind,
				Workload: c.Recipe.Name, Mode: c.Mode, Jobs: c.Jobs,
				FaultRate: c.Fault, Seed: c.Seed, Warmup: c.Warmup,
				Status: "failed", ExitCode: 1, Error: msg,
			}
		}
		if row.Status == "failed" {
			rr.Failures = append(rr.Failures, row)
		}
		rr.Report.Cells = append(rr.Report.Cells, row)
	}
	rr.AssertFailures = r.evaluateAsserts(rr.Report)
	return rr, nil
}

// evaluateAsserts checks every experiment's declarative assertions against
// the finished report.
func (r *Runner) evaluateAsserts(rep *results.Report) []AssertFailure {
	var fails []AssertFailure
	for i := range r.Spec.Experiments {
		e := &r.Spec.Experiments[i]
		if len(e.Asserts) == 0 {
			continue
		}
		// Best MIPS per workload/mode within the experiment.
		best := map[string]float64{}
		for _, c := range rep.Cells {
			if c.Experiment != e.Name || c.Status != "ok" {
				continue
			}
			key := c.Workload + "/" + c.Mode
			if c.MIPS.Max > best[key] {
				best[key] = c.MIPS.Max
			}
		}
		for _, a := range e.Asserts {
			switch a.Type {
			case "min_ratio":
				seen := map[string]bool{}
				for _, c := range rep.Cells {
					if c.Experiment != e.Name || seen[c.Workload] {
						continue
					}
					seen[c.Workload] = true
					m, v := best[c.Workload+"/"+a.Mode], best[c.Workload+"/"+a.Vs]
					if v <= 0 || m <= 0 {
						fails = append(fails, AssertFailure{
							Experiment: e.Name, Workload: c.Workload,
							Message: fmt.Sprintf("min_ratio %s vs %s: missing measurements", a.Mode, a.Vs),
						})
						continue
					}
					if m < a.Ratio*v {
						fails = append(fails, AssertFailure{
							Experiment: e.Name, Workload: c.Workload,
							Message: fmt.Sprintf("min_ratio: %s %.0f MIPS < %.2f x %s %.0f MIPS",
								a.Mode, m, a.Ratio, a.Vs, v),
						})
					}
				}
			case "max_abs_err_pct":
				for _, c := range rep.Cells {
					if c.Experiment != e.Name || c.Status != "ok" || c.Kind != KindValidate {
						continue
					}
					err := c.PredErr.Mean
					if err < 0 {
						err = -err
					}
					if err > a.LimitPct {
						fails = append(fails, AssertFailure{
							Experiment: e.Name, Workload: c.Workload,
							Message: fmt.Sprintf("max_abs_err_pct: |%.1f%%| > %.1f%%",
								c.PredErr.Mean, a.LimitPct),
						})
					}
				}
			}
		}
	}
	return fails
}

// Emit writes the run's artifacts: report.json and results.csv under
// OutDir, plus BENCH_vm.json and a BENCH_vm_history.json entry when the
// spec asks for them. The history is appended first, so a history that
// does not parse fails the emission before either file is touched.
func (r *Runner) Emit(rr *RunResult) error {
	rr.Report.Sort()
	if err := rr.Report.WriteJSON(filepath.Join(r.OutDir, "report.json")); err != nil {
		return err
	}
	csvFile, err := os.Create(filepath.Join(r.OutDir, "results.csv"))
	if err != nil {
		return err
	}
	if err := rr.Report.WriteCSV(csvFile); err != nil {
		csvFile.Close()
		return err
	}
	if err := csvFile.Close(); err != nil {
		return err
	}
	if r.Spec.EmitVMBench {
		benchPath := r.Spec.VMBenchPath
		if benchPath == "" {
			benchPath = "BENCH_vm.json"
		}
		histPath := r.Spec.VMHistoryPath
		if histPath == "" {
			histPath = "BENCH_vm_history.json"
		}
		if err := rr.Report.AppendHistory(histPath); err != nil {
			return err
		}
		if err := rr.Report.WriteJSON(benchPath); err != nil {
			return err
		}
		r.logf("wrote %s (%d cells), appended %s", benchPath, len(rr.Report.Cells), histPath)
	}
	return nil
}
