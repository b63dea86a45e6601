// Command pipebench is the repository's benchmark: it runs the paper's
// pipeline as users run it — pinpoints.Prepare and then validation, with a
// two-worker farm — in a closed loop on one named workload, checks every
// result, and prints the end-to-end metrics, or with -trace 1 the per-layer
// breakdown of a separate traced run. README.md lists every workload and
// metric.
//
// Usage, from the repository root:
//
//	bash pipebench/run.sh --workload produce-mt --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the full
// report: the host stamp, and each metric's median, quartiles and sample
// count. Both, and the spans of a traced run, are also written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"elfie/internal/workloads"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees (BENCHMARK.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"prepare_s", "s"},
	{"validate_s", "s"},
	{"total_s", "s"},
	{"pred_err_pct", "%"},
	{"coverage_pct", "%"},
	{"ops_ok_frac", "ratio"},
	{"store_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics (BENCHMARK.json). Layers that do
// no work on a workload report 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workloads.build_s", "s"},
		{"bbv.profile_s", "s"}, {"bbv.profile_mips", "MIPS"},
		{"vm.chained_mips", "MIPS"}, {"vm.hooked_mips", "MIPS"},
		{"pinplay.log_s", "s"}, {"pinplay.log_instr", "count"},
		{"pinplay.log_useful_frac", "ratio"}, {"pinplay.pinball_mb", "MB"},
		{"simpoint.select_s", "s"}, {"simpoint.k", "count"},
		{"sysstate.analyze_s", "s"}, {"core.convert_s", "s"}, {"core.elfie_mb", "MB"},
		{"elflint.lint_s", "s"}, {"elflint.semantic_steps", "count"},
		{"store.put_s", "s"}, {"store.get_s", "s"}, {"store.put_mb", "MB"},
		{"store.hit_frac", "ratio"}, {"store.dedup_ratio", "ratio"},
		{"store.put_in_lint_s", "s"}, {"farm.lint_stage_s", "s"},
		{"farm.lint_stage_excl_put_s", "s"},
		{"registry.pull_s", "s"}, {"registry.pull_mb", "MB"},
		{"registry.blobs_skipped", "count"},
		{"farm.busy_s", "s"}, {"farm.utilization", "ratio"},
		{"farm.jobs_run", "count"}, {"farm.jobs_cached", "count"},
		{"farm.retries", "count"},
	}
	for _, st := range farmStages {
		defs = append(defs, metricDef{"farm.stage." + st + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"harness.new_s", "s"}, metricDef{"harness.reset_s", "s"},
		metricDef{"perfle.whole_s", "s"}, metricDef{"perfle.region_s", "s"},
		metricDef{"perfle.elfie_mips", "MIPS"},
		metricDef{"coresim.whole_s", "s"}, metricDef{"coresim.region_s", "s"},
		metricDef{"coresim.kips", "KIPS"},
	)
	for _, layer := range layers {
		defs = append(defs, metricDef{"self." + layer + "_s", "s"})
	}
	return append(defs,
		metricDef{"trace.total_s", "s"}, metricDef{"trace.uncovered_s", "s"},
		metricDef{"trace.overhead_s", "s"}, metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}()

// layers are the span-name prefixes of the traced run: the repository
// modules the benchmark calls.
var layers = []string{
	"pinpoints", "workloads", "vm", "harness", "bbv", "simpoint", "pinplay",
	"sysstate", "core", "elflint", "store", "registry", "perfle", "coresim",
}

// runStats accumulates a run's operation counts and metric samples.
type runStats struct {
	ops       tally
	failures  []string
	samples   map[string][]float64
	kept      int
	dropped   int
	recovered int
}

func newRunStats() *runStats { return &runStats{samples: make(map[string][]float64)} }

// add folds one iteration in. Its operations always count; an iteration
// whose checks failed contributes no samples.
func (r *runStats) add(it *iteration, samples map[string]float64) {
	r.ops.add(it.ops)
	r.recovered += it.recovered
	if len(it.failures) > 0 {
		r.failures = append(r.failures, it.failures...)
		r.dropped++
		return
	}
	r.kept++
	for name, v := range samples {
		r.samples[name] = append(r.samples[name], v)
	}
}

// opsOKFrac is the share of attempted operations that succeeded.
func (r *runStats) opsOKFrac() float64 {
	if r.ops.attempted == 0 {
		return 0
	}
	return float64(r.ops.attempted-r.ops.failed) / float64(r.ops.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: everything a reader needs to trust the
// result.
type report struct {
	Stamp      hostStamp `json:"stamp"`
	Iterations int       `json:"iterations"`
	Dropped    int       `json:"dropped"`
	// Recovered counts region measurements rescued by an alternate.
	Recovered int                `json:"recovered_measurements"`
	ELFieSet  string             `json:"elfie_set_sha256"`
	Failures  []string           `json:"failures,omitempty"`
	Summaries map[string]summary `json:"metrics"`
}

func main() {
	name := flag.String("workload", "produce-mt", "workload: produce-mt or consume")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/out", "directory for stores, reports and spans")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pipebench: bad arguments (see -h)")
		os.Exit(2)
	}
	res, rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "pipebench: correctness checks failed")
		os.Exit(1)
	}
}

// minJobs is the fewest pipeline jobs an untraced run measures, however
// long they take: with three, the median ignores one job slowed by the
// host. A traced iteration runs the pipeline three times, and per-layer
// metrics have no bound, so a traced run needs only one.
const minJobs = 3

// run sets up, measures for dur in a closed loop, and summarizes.
func run(w workload, seed int64, dur time.Duration, traced bool, out string) (*result, *report, error) {
	b, err := newBench(w, seed, out)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	rs := newRunStats()

	// The first build of a process runs on a cold heap; it is not timed.
	if _, err := workloads.Build(b.recipe); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	var setup []float64
	for i := 0; i < w.setupReps; i++ {
		d, err := b.setupOnce(&rs.ops)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, d.Seconds())
	}

	least := minJobs
	if traced {
		least = 1
	}
	tr := newTracer()
	steal := startSteal()
	start := time.Now()
	for n := 0; n < least || time.Since(start) < dur; n++ {
		var it *iteration
		var samples map[string]float64
		// Each job starts from a collected heap and a quiet disk, so the
		// garbage and the deleted store of the job before it do not decide
		// when this one's collections and writebacks run.
		settleIO()
		runtime.GC()
		heap := startHeapPeak(2 * time.Millisecond)
		if traced {
			it, samples, err = b.traceIteration(tr)
		} else {
			it, _, err = b.iterate(nil, -1)
		}
		peak := heap.Stop()
		if err != nil {
			return nil, nil, err
		}
		if !traced {
			samples = it.endToEnd()
			samples["peak_heap_mb"] = float64(peak) / 1e6
		}
		b.steady(it)
		rs.add(it, samples)
	}
	stolen := steal.frac()
	if !traced && rs.kept > 0 {
		rs.samples["setup_s"] = setup
		rs.samples["ops_ok_frac"] = []float64{rs.opsOKFrac()}
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{
		Correct:   rs.kept > 0 && len(rs.failures) == 0,
		Attempted: rs.ops.attempted, Failed: rs.ops.failed,
		Metrics: make(map[string]metricValue),
	}
	rep := &report{
		Stamp: stamp(w, seed, traced, b.dir, stolen), Iterations: rs.kept, Dropped: rs.dropped,
		Recovered: rs.recovered,
		Failures:  rs.failures, Summaries: make(map[string]summary),
	}
	if b.first != nil {
		rep.ELFieSet = sha([]byte(b.first.ELFies))
	}
	for _, d := range defs {
		s := summarize(rs.samples[d.name])
		rep.Summaries[d.name] = s
		res.Metrics[d.name] = metricValue{Value: s.Median, Unit: d.unit}
	}

	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	if traced {
		base += "-traced"
		if err := tr.writeFile(base + ".spans.json"); err != nil {
			return nil, nil, err
		}
	}
	data, err := json.MarshalIndent(struct {
		Report *report `json:"report"`
		Result *result `json:"result"`
	}{rep, res}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return res, rep, os.WriteFile(base+".json", data, 0o644)
}
