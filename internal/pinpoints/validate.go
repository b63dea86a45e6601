package pinpoints

import (
	"fmt"

	"elfie/internal/coresim"
	"elfie/internal/farm"
	"elfie/internal/perfle"
	"elfie/internal/vm"
)

// RegionCPI is one region's measured contribution to the prediction.
type RegionCPI struct {
	Cluster   int
	SliceUsed int
	Weight    float64
	CPI       float64
	OK        bool
	// UsedAlternate is -1 for the primary representative, else the index
	// into the region's alternate list that succeeded.
	UsedAlternate int
}

// Validation compares whole-program CPI against the weighted region
// prediction — the paper's quality metric for region selection.
type Validation struct {
	Method       string // "native" (ELFie + hardware counters) or "sim"
	TrueCPI      float64
	PredictedCPI float64
	// Error is (true - predicted) / true, the paper's definition.
	Error float64
	// Coverage is the summed weight of regions whose ELFie executed
	// correctly.
	Coverage  float64
	PerRegion []RegionCPI
	// Degradation merges build-time failures (from Prepare) with the
	// measurement failures of this validation: regions recovered via
	// re-log or alternates, regions dropped, and the coverage the drops
	// cost. A dropped region is excluded from the prediction — never
	// silently averaged in as a wrong CPI.
	Degradation DegradationSummary
	// JobStats reports the validation farm's scheduler counters: the
	// whole-program measurement plus one job per region.
	JobStats farm.Counters
}

// measureSlot is one region's validation outcome, written by its farm job
// and merged in b.Regions order so results are deterministic at any -j.
type measureSlot struct {
	rc RegionCPI
	ev *RegionFailure
}

// ValidateNative performs ELFie-based validation: whole-program CPI from a
// native run under the hardware model, per-region CPI from native ELFie
// runs, both via hardware counters (package perfle). Failed ELFies fall
// back to alternate representatives, as in §I.
func ValidateNative(b *Benchmark, trialSeed int64) (*Validation, error) {
	return b.validate("native", trialSeed,
		func(m *vm.Machine) (float64, error) {
			whole, err := perfle.MeasureRun(m, perfle.Options{Cores: 1, NoiseSeed: trialSeed})
			if err != nil {
				return 0, err
			}
			return whole.CPI(), nil
		},
		func(reg *Region) (float64, error) { return b.measureRegion(reg, trialSeed) })
}

// ValidateSim performs the traditional, simulation-based validation: both
// the whole program and each region run under the detailed simulator
// (CoreSim). This is the slow path the paper contrasts against. Failed
// ELFies fall back to alternates, as in ValidateNative.
func ValidateSim(b *Benchmark, cfg coresim.Config) (*Validation, error) {
	return b.validate("sim", b.cfg.Seed,
		func(m *vm.Machine) (float64, error) {
			whole, err := coresim.Simulate(m, cfg)
			if err != nil {
				return 0, err
			}
			return whole.CPI(), nil
		},
		func(reg *Region) (float64, error) { return b.simRegion(reg, cfg) })
}

// validate is the one validation loop: one farm job measures the whole
// program's CPI (whole, on a machine built with seed) and one job per
// region measures its CPI (region, with alternate fallback); the regions
// merge in region order.
func (b *Benchmark) validate(method string, seed int64, whole func(*vm.Machine) (float64, error),
	region func(*Region) (float64, error)) (*Validation, error) {
	v := &Validation{Method: method, Degradation: b.Degradation.clone()}

	f := farm.New(b.validateJobs())
	if err := f.Add(&farm.Job{
		ID: "whole", Stage: "measure-whole",
		Run: func() error {
			m, err := b.NewMachine(seed)
			if err != nil {
				return err
			}
			v.TrueCPI, err = whole(m)
			return err
		},
	}); err != nil {
		return nil, err
	}

	// A failed measurement is degradation, not a job failure: the job
	// records the outcome in its slot and reports success to the farm.
	slots := make([]*measureSlot, len(b.Regions))
	for i, reg := range b.Regions {
		ms := &measureSlot{}
		slots[i] = ms
		reg := reg
		if err := f.Add(&farm.Job{
			ID: fmt.Sprintf("measure%d", i), Stage: "validate",
			Run: func() error {
				ms.rc, ms.ev = b.measureWithFallback(reg, region)
				return nil
			},
		}); err != nil {
			return nil, err
		}
	}

	out := f.Run()
	v.JobStats = out.Counters
	if res := out.Results["whole"]; res.Err != nil {
		return nil, res.Err
	}
	for _, ms := range slots {
		if ms.ev != nil {
			v.Degradation.record(*ms.ev, ms.rc.Weight)
		}
		v.PerRegion = append(v.PerRegion, ms.rc)
	}
	v.finish()
	return v, nil
}

// validateJobs is the validation farm's worker count. Faults injected into
// ELFie runs go to whichever run triggers them first, so with a fault plan
// armed the region runs go one at a time, in region order: which region a
// one-shot rule hits must not depend on how workers interleave.
func (b *Benchmark) validateJobs() int {
	if b.inj != nil {
		return 1
	}
	return b.cfg.Jobs
}

// measureWithFallback measures one region's CPI with measure, falling back
// to alternate representatives when the primary ELFie fails. The returned
// event is nil when the primary measurement succeeded outright.
func (b *Benchmark) measureWithFallback(reg *Region, measure func(*Region) (float64, error)) (RegionCPI, *RegionFailure) {
	rc := RegionCPI{
		Cluster: reg.Cluster, SliceUsed: reg.SliceUsed,
		Weight: reg.Weight, UsedAlternate: -1,
	}
	cpi, err := measure(reg)
	var ev *RegionFailure
	if err != nil {
		ev = &RegionFailure{
			Cluster: reg.Cluster, Slice: reg.SliceUsed,
			Kind: FailureOf(err), Err: err,
		}
		for ai, alt := range reg.Alternates {
			altReg := b.buildRegion(reg.Region, alt)
			if altReg == nil {
				continue
			}
			if cpi, err = measure(altReg); err == nil {
				rc.UsedAlternate = ai
				rc.SliceUsed = alt
				ev.Recovered = true
				ev.Action = fmt.Sprintf("alternate %d (slice %d)", ai, alt)
				break
			}
		}
		if !ev.Recovered {
			ev.Action = "dropped"
		}
	}
	rc.OK = err == nil
	rc.CPI = cpi
	return rc, ev
}

// measureRegion runs one region's ELFie natively and extracts the slice CPI
// (the window after the warm-up prefix). A non-nil error (classifiable via
// FailureOf) means the ELFie failed to produce a trustworthy measurement.
// The region's session is Reset-reused across trials.
func (b *Benchmark) measureRegion(reg *Region, seed int64) (float64, error) {
	s, err := b.ELFieSession(reg, seed)
	if err != nil {
		return 0, failf(FailConversion, "elfie for slice %d unloadable: %v", reg.SliceUsed, err)
	}
	m := s.Machine
	ms := perfle.Attach(m, perfle.Options{
		Cores:       1,
		StartMarker: b.cfg.MarkerTag,
		SkipInstr:   reg.TailInstr + reg.Warmup,
		NoiseSeed:   seed + int64(reg.SliceUsed),
	})
	if err := s.Run(); err != nil {
		return 0, failf(FailInternal, "elfie run for slice %d: %w", reg.SliceUsed, err)
	}
	rep := ms.Finish()
	if m.FatalFault != nil {
		return 0, failf(FailUngracefulExit, "elfie for slice %d died: %v",
			reg.SliceUsed, m.FatalFault)
	}
	if !Completed(m) || !rep.MarkerSeen || rep.WindowInstructions == 0 {
		return 0, failf(FailUngracefulExit,
			"elfie for slice %d missed its graceful exit (marker=%v window=%d)",
			reg.SliceUsed, rep.MarkerSeen, rep.WindowInstructions)
	}
	return rep.WindowCPI(), nil
}

// simRegion simulates one region's ELFie under CoreSim and returns the CPI
// of the whole marked window, warm-up prefix included: without a mid-run
// snapshot the detailed model cannot split it off. The warm-up share is
// small (warm execution of the same code), and the detailed pipeline
// carries no cold-start artifact to first order. A run that retires no
// more than the warm-up prefix has failed.
func (b *Benchmark) simRegion(reg *Region, cfg coresim.Config) (float64, error) {
	s, err := b.ELFieSession(reg, b.cfg.Seed)
	if err != nil {
		return 0, failf(FailConversion, "elfie for slice %d unloadable: %v", reg.SliceUsed, err)
	}
	m := s.Machine
	cfg.StartMarker = b.cfg.MarkerTag
	warmLimit := reg.TailInstr + reg.Warmup

	sim := coresim.Attach(m, cfg)
	if err := s.Run(); err != nil {
		return 0, failf(FailInternal, "simulated elfie run for slice %d: %w", reg.SliceUsed, err)
	}
	res := sim.Finish()
	if !Completed(m) {
		return 0, failf(FailUngracefulExit, "simulated elfie for slice %d missed its graceful exit",
			reg.SliceUsed)
	}
	total := res.Ring3Instr + res.Ring0Instr
	if total <= warmLimit {
		return 0, failf(FailUngracefulExit, "simulated elfie for slice %d retired only %d of %d warm-up",
			reg.SliceUsed, total, warmLimit)
	}
	return res.CPI(), nil
}

func (v *Validation) finish() {
	var wsum, cpiw float64
	for _, rc := range v.PerRegion {
		if rc.OK {
			wsum += rc.Weight
			cpiw += rc.Weight * rc.CPI
		}
	}
	v.Coverage = wsum
	if wsum > 0 {
		v.PredictedCPI = cpiw / wsum
	}
	if v.TrueCPI > 0 {
		v.Error = (v.TrueCPI - v.PredictedCPI) / v.TrueCPI
	}
}

// String renders a one-line summary.
func (v *Validation) String() string {
	return fmt.Sprintf("%s: true=%.4f predicted=%.4f error=%+.2f%% coverage=%.0f%%",
		v.Method, v.TrueCPI, v.PredictedCPI, 100*v.Error, 100*v.Coverage)
}
