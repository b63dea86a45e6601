// Package results is the one emission layer for every measurement the
// tool-chain produces. The experiment grid (internal/grid) and CI hand
// their observations to this package, which owns aggregation
// (mean/std/min/max over repeats), the schema-versioned report JSON, the
// CSV/summary-table renderings, and the append-only history arrays
// (BENCH_vm_history.json) that keep every report's trajectory. There is
// one format: BENCH_vm.json is a Report.
package results

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// SchemaVersion stamps every Report. Bump it when a field changes meaning
// or moves; consumers (CI assertions, README regeneration) check it.
const SchemaVersion = 1

// Host records the measurement environment.
type Host struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
}

// CaptureHost snapshots the current environment.
func CaptureHost() Host {
	hn, _ := os.Hostname()
	return Host{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Hostname:   hn,
	}
}

// Stats is the dispersion summary of one metric over a cell's repeats.
type Stats struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

// Aggregate computes Stats over samples. Std is the sample standard
// deviation (n-1 denominator), 0 for fewer than two samples.
func Aggregate(samples []float64) Stats {
	s := Stats{N: len(samples)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = samples[0], samples[0]
	var sum float64
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range samples {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Sample is one repeat's raw observation. Which fields are meaningful
// depends on the cell kind: timing kinds fill Instructions/Seconds/MIPS,
// validation kinds fill the prediction-error columns.
type Sample struct {
	Instructions uint64  `json:"instructions,omitempty"`
	Seconds      float64 `json:"seconds,omitempty"`
	MIPS         float64 `json:"mips,omitempty"`
	// PredErrPct is the §IV prediction error (predicted vs measured CPI),
	// in percent, signed.
	PredErrPct float64 `json:"pred_err_pct,omitempty"`
	// Coverage is the fraction of whole-run instructions the selected
	// regions represent.
	Coverage float64 `json:"coverage,omitempty"`
}

// Cell is one grid point: (experiment, workload, mode, jobs, fault rate,
// seed) plus its aggregated repeats — or its recorded failure.
type Cell struct {
	ID         string  `json:"id"`
	Experiment string  `json:"experiment"`
	Kind       string  `json:"kind"`
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"`
	Jobs       int     `json:"jobs,omitempty"`
	FaultRate  float64 `json:"fault_rate,omitempty"`
	Seed       int64   `json:"seed"`
	Warmup     uint64  `json:"warmup,omitempty"`

	// Status is "ok" or "failed". Failed cells carry the exit-taxonomy
	// code (1 internal, 2 corrupt input, 3 divergence) and the error text;
	// their Samples/Stats are empty.
	Status   string `json:"status"`
	ExitCode int    `json:"exit_code,omitempty"`
	Error    string `json:"error,omitempty"`

	Samples []Sample `json:"samples,omitempty"`
	MIPS    Stats    `json:"mips,omitempty"`
	Seconds Stats    `json:"seconds,omitempty"`
	PredErr Stats    `json:"pred_err,omitempty"`
	// Instructions is the retired count of the first repeat. A fixed
	// repeat, not the fastest, so a count column does not depend on which
	// repeat the host happened to run quickest (repeats at different
	// seeds can retire different counts).
	Instructions uint64 `json:"instructions,omitempty"`
	// Extra carries kind-specific scalars (coverage, warmup hit rates,
	// per-simulator CPIs) without schema churn.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Finalize computes the cell's aggregate stats from its samples.
func (c *Cell) Finalize() {
	if len(c.Samples) == 0 {
		return
	}
	var mips, secs, errs []float64
	for _, s := range c.Samples {
		mips = append(mips, s.MIPS)
		secs = append(secs, s.Seconds)
		errs = append(errs, s.PredErrPct)
	}
	c.MIPS = Aggregate(mips)
	c.Seconds = Aggregate(secs)
	c.PredErr = Aggregate(errs)
	c.Instructions = c.Samples[0].Instructions
}

// Report is the grid's full output: every cell, stamped with schema,
// timestamp, and host.
type Report struct {
	Schema    int    `json:"schema"`
	Timestamp string `json:"timestamp,omitempty"`
	Grid      string `json:"grid,omitempty"`
	Host      Host   `json:"host"`
	Cells     []Cell `json:"cells"`
}

// New builds an empty report for a grid file.
func New(grid string) *Report {
	return &Report{Schema: SchemaVersion, Grid: grid, Host: CaptureHost()}
}

// Sort orders cells deterministically (experiment, workload, mode, seed).
func (r *Report) Sort() {
	sort.SliceStable(r.Cells, func(i, j int) bool {
		a, b := &r.Cells[i], &r.Cells[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return a.Seed < b.Seed
	})
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// AppendHistory appends the report, stamped with the current time, to the
// JSON array of reports at path, creating the file if it does not exist.
// An existing file that does not parse as an array is an error naming it
// and is left untouched: it is the trajectory later runs are compared
// against, so it is never restarted.
func (r *Report) AppendHistory(path string) error {
	var hist []json.RawMessage
	buf, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(buf, &hist); err != nil {
			return fmt.Errorf("history %s does not parse: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	entry := *r
	entry.Timestamp = time.Now().UTC().Format(time.RFC3339)
	raw, err := json.Marshal(&entry)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(append(hist, raw), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// csvHeader is the long-format CSV layout: one row per cell.
var csvHeader = []string{
	"experiment", "kind", "workload", "mode", "jobs", "fault_rate", "seed",
	"status", "exit_code", "repeats", "instructions",
	"mips_mean", "mips_std", "mips_min", "mips_max",
	"seconds_mean", "seconds_std",
	"pred_err_pct_mean", "pred_err_pct_std",
}

// WriteCSV renders the report as long-format CSV, one row per cell.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, c := range r.Cells {
		rec := []string{
			c.Experiment, c.Kind, c.Workload, c.Mode,
			strconv.Itoa(c.Jobs), f(c.FaultRate), strconv.FormatInt(c.Seed, 10),
			c.Status, strconv.Itoa(c.ExitCode), strconv.Itoa(len(c.Samples)),
			strconv.FormatUint(c.Instructions, 10),
			f(c.MIPS.Mean), f(c.MIPS.Std), f(c.MIPS.Min), f(c.MIPS.Max),
			f(c.Seconds.Mean), f(c.Seconds.Std),
			f(c.PredErr.Mean), f(c.PredErr.Std),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummary renders a human-readable table: one row per cell, grouped
// by experiment. Every block shows the kind's headline metric (MIPS, or
// the prediction error for validate cells), the retired instruction count,
// and one column per Extra key — the sorted union over the experiment's
// cells. A missing key, or any column of a failed cell, prints "-".
func (r *Report) WriteSummary(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	prev := ""
	var keys []string
	for _, c := range r.Cells {
		if c.Experiment != prev {
			keys = keys[:0]
			seen := map[string]bool{}
			for _, o := range r.Cells {
				for k := range o.Extra {
					if o.Experiment == c.Experiment && !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
			}
			sort.Strings(keys)
			if prev != "" {
				fmt.Fprintln(tw)
			}
			fmt.Fprintf(tw, "# %s (%s)\n", c.Experiment, c.Kind)
			fmt.Fprintln(tw, strings.Join(append([]string{
				"workload\tmode\tseed\tstatus\tmetric\tmean\tstd\tmin\tmax\tinstructions"}, keys...), "\t"))
			prev = c.Experiment
		}
		metric, st := "mips", c.MIPS
		if c.Kind == "validate" {
			metric, st = "err%", c.PredErr
		}
		if c.Status == "failed" {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s(exit %d)\t%s\t-\t-\t-\t-\t-%s\n",
				c.Workload, c.Mode, c.Seed, c.Status, c.ExitCode, metric,
				strings.Repeat("\t-", len(keys)))
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%d",
			c.Workload, c.Mode, c.Seed, c.Status, metric, st.Mean, st.Std, st.Min, st.Max,
			c.Instructions)
		for _, k := range keys {
			if v, ok := c.Extra[k]; ok {
				fmt.Fprintf(tw, "\t%.9g", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
