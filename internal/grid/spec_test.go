package grid

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elfie/internal/cli"
)

func writeGrid(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRejectsCorruptGrids(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"bad-json", `{"experiments": [`, "grid"},
		{"no-experiments", `{"experiments": []}`, "no experiments"},
		{"unnamed", `{"experiments": [{"kind": "vmcore", "workloads": ["decode_heavy"]}]}`, "no name"},
		{"dup-name", `{"experiments": [
			{"name": "a", "kind": "vmcore", "workloads": ["decode_heavy"]},
			{"name": "a", "kind": "vmcore", "workloads": ["decode_heavy"]}]}`, "duplicate experiment"},
		{"bad-kind", `{"experiments": [{"name": "a", "kind": "warp", "workloads": ["decode_heavy"]}]}`, "unknown kind"},
		{"bad-mode", `{"experiments": [{"name": "a", "kind": "vmcore", "modes": ["sim"], "workloads": ["decode_heavy"]}]}`, "invalid for kind"},
		{"block-mode", `{"experiments": [{"name": "a", "kind": "vmcore", "modes": ["block"], "workloads": ["decode_heavy"]}]}`, "invalid for kind"},
		{"no-workloads", `{"experiments": [{"name": "a", "kind": "vmcore"}]}`, "no workloads"},
		{"bad-selector", `{"experiments": [{"name": "a", "kind": "vmcore", "workloads": ["no.such.workload"]}]}`, "no.such.workload"},
		{"bad-assert-type", `{"experiments": [{"name": "a", "kind": "vmcore", "workloads": ["decode_heavy"],
			"asserts": [{"type": "exactly"}]}]}`, "unknown assert type"},
		{"min-ratio-incomplete", `{"experiments": [{"name": "a", "kind": "vmcore", "workloads": ["decode_heavy"],
			"asserts": [{"type": "min_ratio", "mode": "chained"}]}]}`, "min_ratio needs"},
		{"err-pct-incomplete", `{"experiments": [{"name": "a", "kind": "validate", "workloads": ["decode_heavy"],
			"asserts": [{"type": "max_abs_err_pct"}]}]}`, "max_abs_err_pct needs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(writeGrid(t, tc.body))
			if err == nil {
				t.Fatalf("Load accepted %s", tc.name)
			}
			if !errors.Is(err, cli.ErrCorruptInput) {
				t.Fatalf("error not classified as corrupt input: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLoadDefaultsNameToPath(t *testing.T) {
	path := writeGrid(t, `{"experiments": [{"name": "a", "kind": "vmcore", "workloads": ["decode_heavy"]}]}`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != path {
		t.Fatalf("Name = %q, want grid path %q", s.Name, path)
	}
}

func TestCellsExpansion(t *testing.T) {
	s := &Spec{
		Name:    "t",
		Repeats: 2,
		Experiments: []Experiment{{
			Name:       "vm",
			Kind:       KindVMCore,
			Workloads:  []string{"decode_heavy", "mem_stream"},
			Seeds:      []int64{1, 2},
			FaultRates: []float64{0, 0.01},
		}},
	}
	cells, err := s.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 3 default vmcore modes x 2 seeds x 2 fault rates.
	if want := 2 * 3 * 2 * 2; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	ids := map[string]bool{}
	for _, c := range cells {
		if ids[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		ids[c.ID] = true
		if c.Repeats != 2 {
			t.Fatalf("cell %s repeats = %d, want spec default 2", c.ID, c.Repeats)
		}
		if strings.ContainsAny(c.FileID(), "/:") {
			t.Fatalf("FileID %q keeps path separators", c.FileID())
		}
	}
	// The fault axis has two values, so every ID carries the /f suffix.
	if !ids["vm/decode_heavy/chained/s1/f0"] || !ids["vm/decode_heavy/chained/s1/f0.01"] {
		t.Fatalf("expected fault-suffixed IDs, got e.g. %v", cells[0].ID)
	}

	// Repeats: experiment override beats the spec, runner override beats both.
	s.Experiments[0].Repeats = 5
	cells, err = s.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Repeats != 5 {
		t.Fatalf("experiment repeats not applied: %d", cells[0].Repeats)
	}
	cells, err = s.Cells(7)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Repeats != 7 {
		t.Fatalf("runner repeats override not applied: %d", cells[0].Repeats)
	}
}

func TestCellsTrim(t *testing.T) {
	s := &Spec{
		Experiments: []Experiment{{
			Name:      "v",
			Kind:      KindValidate,
			Workloads: []string{"625.x264_t"},
			Trim:      2,
		}},
	}
	cells, err := s.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cells[0].Recipe.Sequence); got != 2 {
		t.Fatalf("trimmed recipe has %d phases, want 2", got)
	}

	// Asm recipes have no phase script; trim must be a no-op.
	s.Experiments[0] = Experiment{
		Name: "c", Kind: KindVMCore, Workloads: []string{"sys.dense"}, Trim: 1,
	}
	cells, err = s.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Recipe.Asm == "" {
		t.Fatal("corpus recipe lost its Asm under trim")
	}
}

func TestCellsRejectsDuplicateIDs(t *testing.T) {
	// The same workload named twice collapses to identical IDs.
	s := &Spec{
		Experiments: []Experiment{{
			Name:      "vm",
			Kind:      KindVMCore,
			Workloads: []string{"decode_heavy", "decode_heavy"},
		}},
	}
	_, err := s.Cells(0)
	if err == nil || !errors.Is(err, cli.ErrCorruptInput) {
		t.Fatalf("duplicate IDs not rejected as corrupt input: %v", err)
	}
}

// TestGridFiles loads and expands every checked-in grid, and holds
// paper-full.json to paper.json: the same experiments in the same order,
// differing only in scale (workload lists, region length) and untrimmed.
func TestGridFiles(t *testing.T) {
	paths, _ := filepath.Glob("../../grids/*.json")
	specs := map[string]*Spec{}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if cells, err := s.Cells(0); err != nil || len(cells) == 0 {
			t.Fatalf("%s: %d cells, %v", p, len(cells), err)
		}
		specs[filepath.Base(p)] = s
	}
	reduced, full := specs["paper.json"], specs["paper-full.json"]
	if reduced == nil || full == nil || full.Repeats != reduced.Repeats || len(full.Experiments) != len(reduced.Experiments) {
		t.Fatalf("paper-full.json does not mirror paper.json's experiments (of %v)", paths)
	}
	for i, r := range reduced.Experiments {
		f := full.Experiments[i]
		if f.Trim != 0 {
			t.Errorf("paper-full.json %s trims to %d phases", f.Name, f.Trim)
		}
		f.Workloads, f.Trim, f.RegionLength = r.Workloads, r.Trim, r.RegionLength
		if !reflect.DeepEqual(f, r) {
			t.Errorf("experiment %d: paper-full.json %+v differs from paper.json %+v beyond scale", i, f, r)
		}
	}
}
