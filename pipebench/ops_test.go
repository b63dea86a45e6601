package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestOpsCountingDropsFailedIterations(t *testing.T) {
	rs := newRunStats()

	good := &iteration{}
	for i := 0; i < 20; i++ {
		good.ops.op(true) // region builds and measurements
	}
	good.check(true, "hash sets match")
	rs.add(good, map[string]float64{"total_s": 4.0})

	bad := &iteration{}
	for i := 0; i < 20; i++ {
		bad.ops.op(true)
	}
	bad.ops.op(false) // a region measurement that failed
	bad.check(false, "hash sets differ")
	rs.add(bad, map[string]float64{"total_s": 9.0})

	if rs.ops.attempted != 43 || rs.ops.failed != 2 {
		t.Fatalf("ops = %+v, want 43 attempted, 2 failed", rs.ops)
	}
	if got, want := rs.opsOKFrac(), 41.0/43.0; got != want {
		t.Fatalf("opsOKFrac = %v, want %v", got, want)
	}
	if rs.kept != 1 || rs.dropped != 1 {
		t.Fatalf("kept %d dropped %d, want 1 and 1", rs.kept, rs.dropped)
	}
	if s := rs.samples["total_s"]; len(s) != 1 || s[0] != 4.0 {
		t.Fatalf("samples %v: the failed iteration's timing must be dropped", s)
	}
	if len(rs.failures) != 1 {
		t.Fatalf("failures %v, want the one failed check", rs.failures)
	}
}

func TestOpsFailureWithoutFailedCheckKeepsSample(t *testing.T) {
	// A region the pipeline dropped is a failed operation, not a failed
	// check: the degraded result is still a valid measurement.
	rs := newRunStats()
	it := &iteration{}
	it.ops.op(false)
	it.check(true, "steady")
	rs.add(it, map[string]float64{"total_s": 4.0})
	if rs.kept != 1 || rs.ops.failed != 1 || rs.opsOKFrac() != 0.5 {
		t.Fatalf("kept %d ops %+v frac %v", rs.kept, rs.ops, rs.opsOKFrac())
	}
}

func TestSteadinessGuard(t *testing.T) {
	b := &bench{seed: 1}
	fp := fingerprint{PredErrPct: 21.4, CoveragePct: 100, StoreBytes: 1 << 20, K: 20, Regions: 20, ELFies: "a,b"}
	first := &iteration{fp: fp}
	b.steady(first)
	same := &iteration{fp: fp}
	b.steady(same)
	moved := &iteration{fp: fp}
	moved.fp.StoreBytes++
	b.steady(moved)
	if len(first.failures)+len(same.failures) != 0 || len(moved.failures) != 1 {
		t.Fatalf("failures: first %v same %v moved %v", first.failures, same.failures, moved.failures)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, allWorkloads[i].name)
		}
	}
}
