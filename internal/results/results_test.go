package results

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAggregateGolden checks the repeat-aggregation math against
// hand-computed values.
func TestAggregateGolden(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		want    Stats
	}{
		{"empty", nil, Stats{}},
		{"single", []float64{42}, Stats{Mean: 42, Std: 0, Min: 42, Max: 42, N: 1}},
		// mean 30, sample variance ((20²)+(0)+(20²))/2 = 400 → std 20
		{"three", []float64{10, 30, 50}, Stats{Mean: 30, Std: 20, Min: 10, Max: 50, N: 3}},
		// mean 2.5, deviations ±1.5,±0.5 → var (2*2.25+2*0.25)/3 = 5/3
		{"four", []float64{1, 2, 3, 4}, Stats{Mean: 2.5, Std: math.Sqrt(5.0 / 3.0), Min: 1, Max: 4, N: 4}},
	}
	for _, tc := range cases {
		got := Aggregate(tc.samples)
		if math.Abs(got.Mean-tc.want.Mean) > 1e-12 ||
			math.Abs(got.Std-tc.want.Std) > 1e-12 ||
			got.Min != tc.want.Min || got.Max != tc.want.Max || got.N != tc.want.N {
			t.Errorf("%s: Aggregate = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestCellFinalize checks that Finalize takes the first repeat's retired
// count and aggregates every metric column.
func TestCellFinalize(t *testing.T) {
	c := Cell{Samples: []Sample{
		{Instructions: 100, Seconds: 2.0, MIPS: 50, PredErrPct: -1.5},
		{Instructions: 101, Seconds: 1.0, MIPS: 101, PredErrPct: 2.5},
	}}
	c.Finalize()
	if c.Instructions != 100 {
		t.Errorf("Instructions = %d, want first repeat's 100", c.Instructions)
	}
	if c.MIPS.Max != 101 || c.MIPS.Min != 50 || c.MIPS.N != 2 {
		t.Errorf("MIPS stats = %+v", c.MIPS)
	}
	if math.Abs(c.PredErr.Mean-0.5) > 1e-12 {
		t.Errorf("PredErr.Mean = %v, want 0.5", c.PredErr.Mean)
	}
}

// TestCellCountIgnoresSpeed: repeats at different seeds can retire
// different counts (table1-overhead's multi-threaded bwaves ELFie retires
// 858517, 857153 and 831135 at seeds 1-3). Whichever repeat ran fastest,
// the count column is the first repeat's.
func TestCellCountIgnoresSpeed(t *testing.T) {
	counts := []uint64{858517, 857153, 831135}
	for fastest := range counts {
		c := Cell{}
		for i, n := range counts {
			mips := 10.0
			if i == fastest {
				mips = 20
			}
			c.Samples = append(c.Samples, Sample{Instructions: n, Seconds: float64(n) / mips / 1e6, MIPS: mips})
		}
		c.Finalize()
		if c.Instructions != counts[0] {
			t.Errorf("fastest repeat %d: Instructions = %d, want the first repeat's %d",
				fastest, c.Instructions, counts[0])
		}
	}
}

func sampleReport() *Report {
	r := New("grids/test.json")
	r.Host = Host{GoVersion: "go1.x", NumCPU: 8, GoMaxProcs: 8}
	mk := func(workload, mode string, mips ...float64) Cell {
		c := Cell{
			ID: workload + "/" + mode, Experiment: "vm", Kind: "vmcore",
			Workload: workload, Mode: mode, Seed: 1, Status: "ok",
		}
		for _, m := range mips {
			c.Samples = append(c.Samples, Sample{
				Instructions: 1000, Seconds: 1000 / m / 1e6, MIPS: m,
			})
		}
		c.Finalize()
		return c
	}
	r.Cells = []Cell{
		mk("decode_heavy", "chained", 300, 310),
		mk("decode_heavy", "interp", 31),
		mk("decode_heavy", "hooked", 62),
		mk("mem_stream", "chained", 150, 140),
	}
	return r
}

// TestVMBenchHistory pins the BENCH_vm emission: the latest file is the
// report itself, grid mode names and all, and every append adds one
// timestamped report to the history array.
func TestVMBenchHistory(t *testing.T) {
	rep := sampleReport()
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_vm.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	var got Report
	buf, _ := os.ReadFile(path)
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || len(got.Cells) != 4 || got.Cells[0].Mode != "chained" {
		t.Errorf("BENCH_vm.json = schema %d, %d cells, first mode %q", got.Schema, len(got.Cells), got.Cells[0].Mode)
	}
	if got.Timestamp != "" {
		t.Error("BENCH_vm.json must not carry a timestamp (history entries do)")
	}

	hpath := filepath.Join(dir, "BENCH_vm_history.json")
	for range 2 {
		if err := rep.AppendHistory(hpath); err != nil {
			t.Fatal(err)
		}
	}
	var hist []Report
	hbuf, _ := os.ReadFile(hpath)
	if err := json.Unmarshal(hbuf, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history has %d entries, want 2", len(hist))
	}
	for i, e := range hist {
		if e.Timestamp == "" || e.Schema != SchemaVersion || len(e.Cells) != 4 {
			t.Errorf("entry %d: timestamp %q, schema %d, %d cells", i, e.Timestamp, e.Schema, len(e.Cells))
		}
	}
	if rep.Timestamp != "" {
		t.Error("AppendHistory stamped the caller's report")
	}
}

// TestCSVAndSummary checks the two renderings. Each summary block ends
// with an instructions column and one column per Extra key, the sorted
// union over the experiment's cells; a missing key and every column of a
// failed cell print "-". The CSV layout has no Extra columns.
func TestCSVAndSummary(t *testing.T) {
	r := sampleReport()
	r.Cells = append(r.Cells,
		Cell{Experiment: "vm", Kind: "vmcore", Workload: "boom", Mode: "chained", Seed: 1,
			Status: "failed", ExitCode: 2, Error: "corrupt"},
		Cell{Experiment: "st", Kind: "stats", Workload: "a", Mode: "stats", Status: "ok",
			Instructions: 1234, Extra: map[string]float64{"slices": 64, "max_weight": 0.375}},
		Cell{Experiment: "st", Kind: "stats", Workload: "b", Mode: "stats", Status: "ok",
			Instructions: 99, Extra: map[string]float64{"slices": 12, "regions": 3}},
		Cell{Experiment: "st", Kind: "stats", Workload: "c", Mode: "stats", Status: "failed", ExitCode: 3})
	r.Sort()
	var csvBuf bytes.Buffer
	if err := r.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+8 {
		t.Errorf("CSV has %d lines, want header + 8 cells", len(lines))
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Errorf("CSV header = %q", lines[0])
	}
	var sumBuf bytes.Buffer
	if err := r.WriteSummary(&sumBuf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(sumBuf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "decode_heavy" && f[0] != "mem_stream" {
			got = append(got, strings.Join(f, " "))
		}
	}
	want := []string{
		"# st (stats)",
		"workload mode seed status metric mean std min max instructions max_weight regions slices",
		"a stats 0 ok mips 0.00 0.00 0.00 0.00 1234 0.375 - 64",
		"b stats 0 ok mips 0.00 0.00 0.00 0.00 99 - 3 12",
		"c stats 0 failed(exit 3) mips - - - - - - - -",
		"# vm (vmcore)",
		"workload mode seed status metric mean std min max instructions",
		"boom chained 1 failed(exit 2) mips - - - - -",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summary:\n%s\nwant (timing rows elided):\n%s", sumBuf.String(), strings.Join(want, "\n"))
	}
}
