// Package grid is the declarative experiment-grid runner behind
// cmd/elfiebench: a grid file names experiments (workloads × modes × jobs ×
// fault rates × seeds, with repeats and warmup axes), the runner expands
// them into cells, executes every cell through internal/harness sessions on
// an internal/farm worker pool, persisting each cell's row as it finishes
// (a killed run resumes from the rows), and emits one
// internal/results report (JSON + CSV + summary, plus BENCH_vm.json and its
// history when the grid asks for them). grids/paper.json regenerates the
// paper's tables and figures at reduced scale, grids/paper-full.json at
// paper scale; CI runs a small grid with assertions instead of bespoke perf
// tests.
package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"elfie/internal/cli"
	"elfie/internal/workloads"
)

// Kinds of experiment a grid can run. Each maps onto one measurement path
// of the paper's evaluation.
const (
	// KindVMCore: execution-core throughput (BENCH_vm.json cells) in modes
	// {chained, interp, hooked}: the chained core, the reference
	// interpreter, and the per-instruction path with an OnIns pintool.
	KindVMCore = "vmcore"
	// KindOverhead: Table I — native vs ELFie vs constrained replay vs
	// record instruction rates.
	KindOverhead = "overhead"
	// KindValidate: §IV region-CPI-predicts-whole-run-CPI validation
	// (Fig. 9 / Fig. 10 / Table II), modes {native, sim}.
	KindValidate = "validate"
	// KindStats: Table III — profile/selection statistics.
	KindStats = "stats"
	// KindSniper: Fig. 11 — Sniper simulation of pinballs vs ELFies.
	KindSniper = "sniper"
	// KindFullSystem: Table IV — user-level vs full-system CoreSim.
	KindFullSystem = "fullsystem"
	// KindGem5: Table V — gem5 SE-mode IPC across uarch configs.
	KindGem5 = "gem5"
)

// defaultModes maps each kind to its full mode axis.
var defaultModes = map[string][]string{
	KindVMCore:     {"chained", "interp", "hooked"},
	KindOverhead:   {"native", "elfie", "replay", "record"},
	KindValidate:   {"native"},
	KindStats:      {"stats"},
	KindSniper:     {"pinball", "elfie"},
	KindFullSystem: {"sde", "simics"},
	KindGem5:       {"nehalem", "haswell"},
}

// validModes is the acceptance set per kind.
var validModes = map[string]map[string]bool{
	KindVMCore:     set("chained", "interp", "hooked"),
	KindOverhead:   set("native", "elfie", "replay", "record"),
	KindValidate:   set("native", "sim"),
	KindStats:      set("stats"),
	KindSniper:     set("pinball", "elfie"),
	KindFullSystem: set("sde", "simics"),
	KindGem5:       set("nehalem", "haswell"),
}

func set(ss ...string) map[string]bool {
	m := map[string]bool{}
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// Assert is a declarative pass/fail check evaluated over an experiment's
// finished cells.
type Assert struct {
	// Type selects the check: "min_ratio" requires, per workload, that
	// Mode's best MIPS stay >= Ratio × Vs's best MIPS (the chained-vs-
	// interp perf tripwire); "max_abs_err_pct" requires every ok validate
	// cell's |mean prediction error| <= LimitPct.
	Type     string  `json:"type"`
	Mode     string  `json:"mode,omitempty"`
	Vs       string  `json:"vs,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	LimitPct float64 `json:"limit_pct,omitempty"`
}

// Experiment is one named grid block.
type Experiment struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Workloads are selectors resolved by workloads.Select: names, tag:…,
	// suite:…, corpus, validates.
	Workloads []string `json:"workloads"`
	// Modes defaults to the kind's full mode axis.
	Modes []string `json:"modes,omitempty"`
	// Seeds defaults to the spec's seeds (default [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// Jobs is the per-cell inner parallelism axis (pinpoints farm workers
	// for validate/stats cells); default [0] = GOMAXPROCS.
	Jobs []int `json:"jobs,omitempty"`
	// FaultRates arms seeded syscall-error injection at each rate;
	// default [0] = injection off.
	FaultRates []float64 `json:"fault_rates,omitempty"`
	// Repeats overrides the spec's repeats for this experiment.
	Repeats int `json:"repeats,omitempty"`
	// WarmupSizes is the validate warm-up axis (Table II); default
	// [WarmupSize].
	WarmupSizes []uint64 `json:"warmup_sizes,omitempty"`
	// Trim shortens phase scripts to this many visits (0 = untrimmed).
	// Reduced-scale grids trim; paper-scale grids leave it unset.
	Trim int `json:"trim,omitempty"`

	// Pipeline knobs (defaults chosen per kind; see cells.go).
	SliceSize    uint64 `json:"slice_size,omitempty"`
	WarmupSize   uint64 `json:"warmup_size,omitempty"`
	MaxK         int    `json:"max_k,omitempty"`
	RegionStart  uint64 `json:"region_start,omitempty"`
	RegionLength uint64 `json:"region_length,omitempty"`
	// Budget bounds each measured run's retired instructions (0 = kind
	// default).
	Budget uint64 `json:"budget,omitempty"`

	Asserts []Assert `json:"asserts,omitempty"`
}

// Spec is a parsed grid file.
type Spec struct {
	Name string `json:"name,omitempty"`
	// Repeats per cell (default 1).
	Repeats int `json:"repeats,omitempty"`
	// Seeds defaults experiments' seed axes (default [1]).
	Seeds       []int64      `json:"seeds,omitempty"`
	Experiments []Experiment `json:"experiments"`

	// EmitVMBench writes the run's report to BENCH_vm.json and appends it,
	// timestamped, to the BENCH_vm_history.json array after the run.
	EmitVMBench bool `json:"emit_vm_bench,omitempty"`
	// VMBenchPath / VMHistoryPath override those two output paths.
	VMBenchPath   string `json:"vm_bench_path,omitempty"`
	VMHistoryPath string `json:"vm_history_path,omitempty"`
}

// Load reads and validates a grid file. Errors are classified as corrupt
// input (exit 2).
func Load(path string) (*Spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%w: grid %s: %v", cli.ErrCorruptInput, path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%w: grid %s: %v", cli.ErrCorruptInput, path, err)
	}
	return &s, nil
}

// validate checks kinds, modes, selectors, and assertion shapes.
func (s *Spec) validate() error {
	if len(s.Experiments) == 0 {
		return fmt.Errorf("no experiments")
	}
	names := map[string]bool{}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		if e.Name == "" {
			return fmt.Errorf("experiment %d has no name", i)
		}
		if names[e.Name] {
			return fmt.Errorf("duplicate experiment name %q", e.Name)
		}
		names[e.Name] = true
		valid, ok := validModes[e.Kind]
		if !ok {
			return fmt.Errorf("experiment %s: unknown kind %q", e.Name, e.Kind)
		}
		for _, m := range e.Modes {
			if !valid[m] {
				return fmt.Errorf("experiment %s: mode %q invalid for kind %s", e.Name, m, e.Kind)
			}
		}
		if len(e.Workloads) == 0 {
			return fmt.Errorf("experiment %s: no workloads", e.Name)
		}
		for _, sel := range e.Workloads {
			if _, err := workloads.Select(sel); err != nil {
				return fmt.Errorf("experiment %s: %v", e.Name, err)
			}
		}
		for _, a := range e.Asserts {
			switch a.Type {
			case "min_ratio":
				if a.Mode == "" || a.Vs == "" || a.Ratio <= 0 {
					return fmt.Errorf("experiment %s: min_ratio needs mode, vs, ratio", e.Name)
				}
			case "max_abs_err_pct":
				if a.LimitPct <= 0 {
					return fmt.Errorf("experiment %s: max_abs_err_pct needs limit_pct", e.Name)
				}
			default:
				return fmt.Errorf("experiment %s: unknown assert type %q", e.Name, a.Type)
			}
		}
	}
	return nil
}

// Cell is one expanded grid point, ready to execute.
type Cell struct {
	ID     string
	Exp    *Experiment
	Recipe workloads.Recipe
	Mode   string
	Seed   int64
	Jobs   int
	Fault  float64
	Warmup uint64
	// Repeats is the resolved repeat count for this cell.
	Repeats int
}

// FileID is the cell ID with path separators flattened, safe as a file
// name under the out directory.
func (c *Cell) FileID() string {
	return strings.NewReplacer("/", "_", ":", "_").Replace(c.ID)
}

// trimRecipe shortens a recipe's phase script (no-op for Asm recipes and
// keep <= 0).
func trimRecipe(r workloads.Recipe, keep int) workloads.Recipe {
	if keep <= 0 || r.Asm != "" || len(r.Sequence) <= keep {
		return r
	}
	r.Sequence = r.Sequence[:keep]
	return r
}

// Cells expands the spec into its deterministic cell list. repeatsOverride,
// when > 0, replaces every cell's repeat count.
func (s *Spec) Cells(repeatsOverride int) ([]Cell, error) {
	var cells []Cell
	ids := map[string]bool{}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		modes := e.Modes
		if len(modes) == 0 {
			modes = defaultModes[e.Kind]
		}
		seeds := e.Seeds
		if len(seeds) == 0 {
			seeds = s.Seeds
		}
		if len(seeds) == 0 {
			seeds = []int64{1}
		}
		jobsAxis := e.Jobs
		if len(jobsAxis) == 0 {
			jobsAxis = []int{0}
		}
		rates := e.FaultRates
		if len(rates) == 0 {
			rates = []float64{0}
		}
		warmups := e.WarmupSizes
		if len(warmups) == 0 {
			warmups = []uint64{0}
		}
		repeats := e.Repeats
		if repeats == 0 {
			repeats = s.Repeats
		}
		if repeats == 0 {
			repeats = 1
		}
		if repeatsOverride > 0 {
			repeats = repeatsOverride
		}
		var recipes []workloads.Recipe
		for _, sel := range e.Workloads {
			rs, err := workloads.Select(sel)
			if err != nil {
				return nil, fmt.Errorf("%w: experiment %s: %v", cli.ErrCorruptInput, e.Name, err)
			}
			recipes = append(recipes, rs...)
		}
		for _, r := range recipes {
			r = trimRecipe(r, e.Trim)
			for _, mode := range modes {
				for _, seed := range seeds {
					for _, jobs := range jobsAxis {
						for _, rate := range rates {
							for _, warmup := range warmups {
								id := fmt.Sprintf("%s/%s/%s/s%d", e.Name, r.Name, mode, seed)
								if len(jobsAxis) > 1 {
									id += fmt.Sprintf("/j%d", jobs)
								}
								if len(rates) > 1 || rate > 0 {
									id += fmt.Sprintf("/f%g", rate)
								}
								if len(warmups) > 1 || warmup > 0 {
									id += fmt.Sprintf("/w%d", warmup)
								}
								if ids[id] {
									return nil, fmt.Errorf("%w: duplicate cell id %s", cli.ErrCorruptInput, id)
								}
								ids[id] = true
								cells = append(cells, Cell{
									ID: id, Exp: e, Recipe: r, Mode: mode,
									Seed: seed, Jobs: jobs, Fault: rate,
									Warmup: warmup, Repeats: repeats,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}
