package pinpoints

import (
	"errors"
	"math"
	"testing"

	"elfie/internal/fault"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
)

// chaosPlans are the seeded fault plans the pipeline must degrade under:
// storage corruption, an injected system-call failure, and a forced
// ungraceful ELFie death. Each plan injects exactly one fault (Count/one-shot
// budgets), so every injection must map to exactly one recorded failure.
func chaosPlans() map[string]*fault.Plan {
	perfOpen := uint64(kernel.SysPerfOpen)
	return map[string]*fault.Plan{
		"pinball-corruption": {Seed: 11, Rules: []fault.Rule{
			{Point: fault.PinballBitflip, File: ".text", Count: 1, Offset: -1},
		}},
		"syscall-failure": {Seed: 22, Rules: []fault.Rule{
			{Point: fault.SyscallError, Syscall: &perfOpen, Errno: kernel.ENOSYS, Count: 1},
		}},
		"forced-ungraceful-exit": {Seed: 33, Rules: []fault.Rule{
			{Point: fault.UngracefulExit, AtRetired: 1000},
		}},
		"elfie-restore-bitflip": {Seed: 44, Rules: []fault.Rule{
			{Point: fault.ElfieBitflip, Count: 1, Offset: -1},
		}},
	}
}

func TestChaosPipelineDegradesGracefully(t *testing.T) {
	for name, plan := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("pipeline panicked under fault plan: %v", r)
				}
			}()
			cfg := smallConfig()
			cfg.Fault = plan
			b, err := Prepare(smallRecipe(), cfg)
			if err != nil {
				// Total failure must be typed, never an untyped abort.
				if !errors.Is(err, ErrAllRegionsFailed) {
					t.Fatalf("untyped Prepare failure: %v", err)
				}
				return
			}
			v, err := ValidateNative(b, 7)
			if err != nil {
				t.Fatalf("validation errored (should degrade instead): %v", err)
			}

			injected := b.FaultInjector().InjectedCount()
			if injected == 0 {
				t.Fatalf("plan injected nothing; events: %v", b.FaultInjector().Events())
			}
			d := v.Degradation
			if d.Recovered+d.Dropped != injected {
				t.Errorf("recovered %d + dropped %d != %d injected faults; events: %+v",
					d.Recovered, d.Dropped, injected, d.Events)
			}
			for _, ev := range d.Events {
				if ev.Err == nil || ev.Kind == "" || ev.Action == "" {
					t.Errorf("incomplete failure record: %+v", ev)
				}
			}

			// The CPI that comes out must be real, not silently wrong:
			// surviving regions carry plausible CPIs, dropped weight is
			// accounted, and the prediction error stays in the usual band.
			if v.TrueCPI <= 0.2 || v.TrueCPI > 20 {
				t.Fatalf("true CPI = %v", v.TrueCPI)
			}
			for _, rc := range v.PerRegion {
				if rc.OK && (rc.CPI <= 0.2 || rc.CPI > 20) {
					t.Errorf("implausible region CPI %v: %+v", rc.CPI, rc)
				}
			}
			if got := v.Coverage + d.CoverageLost; math.Abs(got-1) > 0.01 {
				t.Errorf("coverage %v + lost %v != 1", v.Coverage, d.CoverageLost)
			}
			if v.Coverage > 0 && math.Abs(v.Error) > 0.35 {
				t.Errorf("degraded prediction error = %+.1f%%", 100*v.Error)
			}
			t.Logf("%s: injected=%d %s; %s", name, injected, d, v)
		})
	}
}

// chaosOutcome runs the full pipeline (Prepare + native validation) under a
// fault plan at the given worker count and returns the fault accounting
// and the validation summary.
func chaosOutcome(t *testing.T, plan *fault.Plan, jobs int) (injected, recovered, dropped int, summary string, allFailed bool) {
	t.Helper()
	cfg := smallConfig()
	cfg.Fault = plan
	cfg.Jobs = jobs
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		if !errors.Is(err, ErrAllRegionsFailed) {
			t.Fatalf("untyped Prepare failure at -j %d: %v", jobs, err)
		}
		return 0, 0, 0, "", true
	}
	v, err := ValidateNative(b, 7)
	if err != nil {
		t.Fatalf("validation errored at -j %d (should degrade instead): %v", jobs, err)
	}
	d := v.Degradation
	return b.FaultInjector().InjectedCount(), d.Recovered, d.Dropped, v.String(), false
}

// TestChaosThroughFarmParallel drives the seeded fault plans through the
// checkpoint farm at -j 8: rule budgets are injector-global and
// mutex-guarded, so the injection count — and with it the recovered+dropped
// accounting — must match the serial pipeline. Budgets are also spent in
// region order, so a fault that costs a region its primary costs the same
// region at any worker count, and the degraded prediction must match the
// serial one exactly. Run under -race this also exercises the shared
// injector, store, and degradation merging for data races.
func TestChaosThroughFarmParallel(t *testing.T) {
	for name, plan := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			sInj, sRec, sDrop, sVal, sFailed := chaosOutcome(t, plan, 1)
			pInj, pRec, pDrop, pVal, pFailed := chaosOutcome(t, plan, 8)

			if sFailed != pFailed {
				t.Fatalf("total-failure disagreement: serial=%v parallel=%v", sFailed, pFailed)
			}
			if sFailed {
				return
			}
			if pInj == 0 {
				t.Fatal("parallel run injected nothing")
			}
			if pInj != sInj {
				t.Errorf("injection count: serial %d, parallel %d (budgets must be exact)", sInj, pInj)
			}
			if sRec+sDrop != sInj {
				t.Errorf("serial accounting: recovered %d + dropped %d != %d injected", sRec, sDrop, sInj)
			}
			if pRec+pDrop != pInj {
				t.Errorf("parallel accounting: recovered %d + dropped %d != %d injected", pRec, pDrop, pInj)
			}
			if sRec+sDrop != pRec+pDrop {
				t.Errorf("accounting differs: serial %d+%d, parallel %d+%d", sRec, sDrop, pRec, pDrop)
			}
			if sVal != pVal {
				t.Errorf("degraded prediction depends on worker count: serial %s, parallel %s", sVal, pVal)
			}
			t.Logf("%s: injected=%d serial(rec=%d drop=%d) parallel(rec=%d drop=%d)",
				name, pInj, sRec, sDrop, pRec, pDrop)
		})
	}
}

// TestChaosElfieBitflipClassifiedAsLint flips one opcode bit in a converted
// ELFie's restore stub at -j 8 and asserts the farm's lint stage — not a
// crash, not a misclassified conversion error — catches it: the failure is
// typed FailLint, an alternate recovers the region, and the accounting
// invariant holds.
func TestChaosElfieBitflipClassifiedAsLint(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = chaosPlans()["elfie-restore-bitflip"]
	cfg.Jobs = 8
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatalf("pipeline must degrade, not fail: %v", err)
	}
	injected := b.FaultInjector().InjectedCount(fault.ElfieBitflip)
	if injected != 1 {
		t.Fatalf("want exactly 1 bitflip, got %d; events: %v", injected, b.FaultInjector().Events())
	}
	d := b.Degradation
	if d.Recovered+d.Dropped != 1 {
		t.Fatalf("recovered %d + dropped %d != 1 injected; events: %+v", d.Recovered, d.Dropped, d.Events)
	}
	var lintEvents int
	for _, ev := range d.Events {
		if ev.Kind != FailLint {
			t.Errorf("bitflip classified as %q, want %q: %+v", ev.Kind, FailLint, ev)
		}
		lintEvents++
	}
	if lintEvents != 1 {
		t.Errorf("want 1 failure event, got %d: %+v", lintEvents, d.Events)
	}
	if st := b.JobStats.Stage("lint"); st.Failed != 1 || st.Run == 0 {
		t.Errorf("lint stage stats: %+v (want 1 failed, >0 run)", st)
	}
}

func TestChaosTotalFailureIsTyped(t *testing.T) {
	// Corrupt every pinball read: primaries, re-logs, and alternates all
	// fail, so Prepare must return the typed all-regions-failed error.
	cfg := smallConfig()
	cfg.Fault = &fault.Plan{Seed: 5, Rules: []fault.Rule{
		{Point: fault.PinballBitflip, File: ".text", Offset: -1},
	}}
	_, err := Prepare(smallRecipe(), cfg)
	if err == nil {
		t.Fatal("pipeline succeeded with every pinball corrupted")
	}
	if !errors.Is(err, ErrAllRegionsFailed) {
		t.Fatalf("untyped failure: %v", err)
	}
}

func TestChaosFailureClassification(t *testing.T) {
	// FailureOf classifies typed pinball errors without a failError tag.
	if k := FailureOf(pinball.ErrCorrupt); k != FailCorruptPinball {
		t.Errorf("ErrCorrupt -> %s", k)
	}
	if k := FailureOf(pinball.ErrTruncated); k != FailCorruptPinball {
		t.Errorf("ErrTruncated -> %s", k)
	}
	if k := FailureOf(errors.New("mystery")); k != FailInternal {
		t.Errorf("unknown -> %s", k)
	}
	if k := FailureOf(failf(FailUngracefulExit, "x")); k != FailUngracefulExit {
		t.Errorf("tagged -> %s", k)
	}
}
