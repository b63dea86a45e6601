package pinpoints

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"elfie/internal/coresim"
	"elfie/internal/workloads"
)

// smallConfig keeps pipeline tests fast.
func smallConfig() Config {
	return Config{
		SliceSize:   100_000,
		WarmupSize:  500_000,
		MaxK:        8,
		Seed:        1,
		UseSysState: true,
	}
}

// smallRecipe is a reduced benchmark for pipeline tests.
func smallRecipe() workloads.Recipe {
	r := workloads.TrainIntRate()[1] // gcc-like, phased
	return r
}

func TestPrepare(t *testing.T) {
	b, err := Prepare(smallRecipe(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalInstructions == 0 || len(b.Profile.Slices) < 5 {
		t.Fatalf("profile: total=%d slices=%d", b.TotalInstructions, len(b.Profile.Slices))
	}
	if len(b.Regions) == 0 || len(b.Regions) != len(b.Selection.Regions) {
		t.Fatalf("regions: %d vs selection %d", len(b.Regions), len(b.Selection.Regions))
	}
	for _, reg := range b.Regions {
		if reg.Pinball == nil || reg.ELFie == nil {
			t.Fatalf("region slice %d incomplete", reg.SliceUsed)
		}
		if !reg.Pinball.Meta.Fat {
			t.Error("pinball not fat")
		}
		wantLen := reg.Warmup + b.cfg.SliceSize
		if got := reg.Pinball.Meta.TotalInstructions; got != wantLen {
			t.Errorf("region length %d, want %d", got, wantLen)
		}
		if reg.TailInstr == 0 || reg.TailInstr > 100 {
			t.Errorf("startup tail = %d", reg.TailInstr)
		}
		// Early slices get clamped warm-up.
		if reg.SliceUsed == 0 && reg.Warmup != 0 {
			t.Errorf("slice 0 warm-up = %d", reg.Warmup)
		}
	}
}

// validationDigest hashes the measured numbers of a validation: the
// whole-program CPI and every region's outcome (CPI, alternate used, OK).
// The goldens pin the marker, warm-up window and noise path that the
// timing-model goldens (all run without a start marker) never exercise.
func validationDigest(t *testing.T, v *Validation) string {
	t.Helper()
	data, err := json.Marshal(struct {
		TrueCPI   float64
		PerRegion []RegionCPI
	}{v.TrueCPI, v.PerRegion})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

func TestValidateNative(t *testing.T) {
	b, err := Prepare(smallRecipe(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateNative(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v.TrueCPI <= 0.2 || v.TrueCPI > 20 {
		t.Fatalf("true CPI = %v", v.TrueCPI)
	}
	if v.Coverage < 0.95 {
		t.Errorf("coverage = %v (sysstate enabled; everything should run): %+v", v.Coverage, v.PerRegion)
	}
	if math.Abs(v.Error) > 0.35 {
		t.Errorf("prediction error = %+.1f%% (true %.3f predicted %.3f)",
			100*v.Error, v.TrueCPI, v.PredictedCPI)
	}
	if got, want := validationDigest(t, v), "28c7dc0ba472012d"; got != want {
		t.Errorf("native validation digest %s, golden %s", got, want)
	}
	t.Logf("native validation: %s", v)
}

func TestValidateSim(t *testing.T) {
	cfg := smallConfig()
	r := smallRecipe()
	// Shorten: fewer phase visits for the detailed simulator.
	r.Sequence = r.Sequence[:len(r.Sequence)/2]
	b, err := Prepare(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateSim(b, coresim.Skylake1(coresim.FrontendSDE))
	if err != nil {
		t.Fatal(err)
	}
	if v.TrueCPI <= 0 {
		t.Fatalf("sim true CPI = %v", v.TrueCPI)
	}
	if v.Coverage < 0.9 {
		t.Errorf("sim coverage = %v: %+v", v.Coverage, v.PerRegion)
	}
	if math.Abs(v.Error) > 0.35 {
		t.Errorf("sim prediction error = %+.1f%%", 100*v.Error)
	}
	if got, want := validationDigest(t, v), "485e9f870cc24d39"; got != want {
		t.Errorf("sim validation digest %s, golden %s", got, want)
	}
	t.Logf("sim validation: %s", v)
}

func TestAlternateFallbackWithoutSysstate(t *testing.T) {
	// A file-input recipe without sysstate: regions whose slice reads the
	// pre-region descriptor fail; alternates from the same cluster that
	// avoid the reads can recover coverage.
	var r workloads.Recipe
	for _, c := range workloads.TrainIntRate() {
		if c.FileInput {
			r = c
			break
		}
	}
	if r.Name == "" {
		t.Fatal("no file-input recipe")
	}
	cfg := smallConfig()
	cfg.UseSysState = false
	b, err := Prepare(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateNative(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig()
	b2, err := Prepare(r, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ValidateNative(b2, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("without sysstate: %s", v)
	t.Logf("with sysstate:    %s", v2)
	if v2.Coverage < v.Coverage {
		t.Errorf("sysstate reduced coverage: %v -> %v", v.Coverage, v2.Coverage)
	}
	if v2.Coverage < 0.95 {
		t.Errorf("coverage with sysstate = %v", v2.Coverage)
	}
}

func TestRunToRunVariation(t *testing.T) {
	// ELFie-based validation across trials gives close but not identical
	// errors (the two ELFie columns of Fig. 9).
	b, err := Prepare(smallRecipe(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ValidateNative(b, 100)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ValidateNative(b, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1.Error-v2.Error) > 0.1 {
		t.Errorf("trials wildly different: %v vs %v", v1.Error, v2.Error)
	}
}

func TestWarmupTuningReducesError(t *testing.T) {
	// The paper's Table II: increasing the warm-up region shrinks the
	// gcc prediction error. Reproduce the direction with two warm-ups.
	run := func(warmup uint64) float64 {
		cfg := smallConfig()
		cfg.WarmupSize = warmup
		b, err := Prepare(smallRecipe(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ValidateNative(b, 7)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(v.Error)
	}
	small := run(100_000)
	large := run(1_000_000)
	t.Logf("warm-up 100K: |error| = %.1f%%; warm-up 1M: |error| = %.1f%%",
		100*small, 100*large)
	if large >= small {
		t.Errorf("larger warm-up did not reduce error: %.3f -> %.3f", small, large)
	}
}
