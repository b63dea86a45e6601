// Package pinpoints implements the end-to-end PinPoints methodology the
// paper builds its case studies on: profile a workload, find representative
// regions with SimPoint, capture each as a fat pinball, extract its
// sysstate, convert it to an ELFie — then validate the selection by
// comparing whole-program CPI against the weighted per-region prediction,
// either with the fast native hardware model (ELFie-based validation) or
// with the detailed simulator (traditional validation).
package pinpoints

import (
	"fmt"
	"sync/atomic"
	"time"

	"elfie/internal/bbv"
	"elfie/internal/core"
	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/farm"
	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/simpoint"
	"elfie/internal/store"
	"elfie/internal/sysstate"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

// Config parameterizes the pipeline (defaults follow the paper's setup,
// scaled 1000x down: slice 200 M -> 200 K, warm-up 800 M -> 800 K).
type Config struct {
	SliceSize  uint64
	WarmupSize uint64
	MaxK       int
	Seed       int64
	// MarkerTag is the ROI marker embedded in generated ELFies.
	MarkerTag uint32
	// MachineBudget bounds every functional run.
	MachineBudget uint64
	// UseSysState controls whether ELFies get sysstate support. Without
	// it, regions that re-execute stateful system calls fail — the
	// situation alternate region selection recovers from.
	UseSysState bool
	// Fault, when non-nil, arms seeded fault injection on the pipeline's
	// region paths: pinball storage round-trips and native ELFie runs.
	// Profiling, logging, and whole-program measurement machines stay
	// clean, so every injected failure maps to exactly one region and the
	// reference CPI is never silently perturbed. Rule budgets are spent
	// in region order at any Jobs, so a plan always hits the same regions:
	// Prepare claims restore-stub flips as it submits each region, and
	// validation runs its ELFies one at a time while Fault is armed.
	Fault *fault.Plan
	// Jobs bounds the checkpoint farm's worker pool for per-region work;
	// 0 means GOMAXPROCS. Any value produces byte-identical artifacts:
	// region builds are independent given the seed, and results merge in
	// selection order, never completion order.
	Jobs int
	// Store, when non-nil, caches pipeline artifacts (pinball + ELFie +
	// sysstate per region, plus BBV profiles) content-addressed by
	// recipe/config/slice, so a re-run of the same configuration is a
	// cache hit that skips logging and conversion entirely. Caching is
	// disabled while Fault is armed: injected corruption must strike live
	// paths, and a corrupted read must never be served back as warm.
	//
	// The store is also the run's resume state: a re-run of a killed run
	// serves every region and profile the killed run stored, and a replay
	// continues from its region's newest checkpoint (see CkptEvery).
	//
	// Store is an interface so a registry-backed pull-through cache can
	// stand in for a plain local store: artifact misses then fall through
	// to a remote registry before the pipeline rebuilds anything.
	Store store.Cache
	// CkptEvery, when nonzero, appends a checkpointed constrained-replay
	// stage to every region build: the region's fat pinball is replayed
	// with injection, taking a live mid-run checkpoint each CkptEvery
	// retired instructions. Checkpoints are chunked into Store under one
	// key per region, each overwriting the last (page-level dedup keeps a
	// checkpoint series cheap), so a watchdog-interrupted replay resumes
	// mid-region on its retry, and a killed one on the next run.
	CkptEvery uint64
	// ReplayBudget is the instruction-budget watchdog for the replay stage:
	// an attempt that retires this many instructions is interrupted
	// (checkpoint-then-stop) and retried, resuming from the checkpoint —
	// bounded work per attempt, forward progress across attempts. 0 means
	// unlimited.
	ReplayBudget uint64
	// ReplayDeadline is the wall-clock watchdog for the replay stage: an
	// attempt still running after this long is interrupted the same way.
	// 0 means no deadline.
	ReplayDeadline time.Duration
}

func (c *Config) defaults() {
	if c.SliceSize == 0 {
		c.SliceSize = 200_000
	}
	if c.WarmupSize == 0 {
		c.WarmupSize = 800_000
	}
	if c.MaxK == 0 {
		c.MaxK = 50
	}
	if c.MarkerTag == 0 {
		c.MarkerTag = 0x1010
	}
	if c.MachineBudget == 0 {
		c.MachineBudget = 2_000_000_000
	}
}

// Region is one prepared simulation region.
type Region struct {
	simpoint.Region
	// SliceUsed is the slice actually captured (the representative, or an
	// alternate after fallback).
	SliceUsed int
	// StartIcount is where capture began (slice start minus warm-up).
	StartIcount uint64
	// Warmup is the actual warm-up prefix captured (clamped at program
	// start).
	Warmup uint64
	// TailInstr is the ELFie startup-tail instruction count between the
	// ROI marker and application code (excluded from measurement windows).
	TailInstr uint64
	Pinball   *pinball.Pinball
	ELFie     *elfobj.File
	SysState  *sysstate.State
	// Restore is the converter's restore-map side table, cross-checked by
	// the static verifier against the generated startup code.
	Restore *core.RestoreMap

	// sess is the region's cached native-run session: the ELFie image is
	// serialized and re-parsed once, then validation trials Reset-reuse
	// the session (see ELFieSession).
	sess *harness.Session
}

// Benchmark is a fully prepared workload: executable, profile, selection,
// and one ELFie per selected region.
type Benchmark struct {
	Recipe            workloads.Recipe
	Exe               *elfobj.File
	Profile           *bbv.Profile
	Selection         *simpoint.Result
	Regions           []*Region
	TotalInstructions uint64
	// Degradation records build-time region failures and recoveries.
	Degradation DegradationSummary
	// JobStats holds the checkpoint farm's counters for the Prepare run:
	// jobs run/cached/retried/failed and per-stage wall time. A warm-cache
	// re-run shows Run=0 for the "log" and "convert" stages.
	JobStats farm.Counters

	cfg Config
	// inj is the pipeline-lifetime fault injector (nil when Config.Fault
	// is nil), shared across region builds and ELFie runs so rule budgets
	// span the whole pipeline deterministically.
	inj *fault.Injector
	// pass is the log stage's forward pass over the program, planned at
	// selection (see forwardPass).
	pass *forwardPass
	// cacheErrs counts store entries that failed integrity or parse checks
	// and were rebuilt, plus failed cache writes — cache trouble degrades
	// to a miss, never to a wrong artifact, but it is never silent.
	cacheErrs atomic.Int64
}

// CacheErrors reports how many store operations failed and degraded to a
// cache miss (corrupt entries rebuilt, failed writes skipped).
func (b *Benchmark) CacheErrors() int64 { return b.cacheErrs.Load() }

// FaultInjector exposes the pipeline's injector (nil when injection is off),
// for tests that assert on injected-event counts.
func (b *Benchmark) FaultInjector() *fault.Injector { return b.inj }

// session composes a harness session for the benchmark's own program.
// Profiling, logging, and whole-program measurement machines stay clean of
// the pipeline injector by design (see Config.Fault).
func (b *Benchmark) session(mode harness.Mode, seed int64) (*harness.Session, error) {
	fs := kernel.NewFS()
	if b.Recipe.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	return harness.New(harness.Config{
		Mode: mode, Exe: b.Exe, Argv: []string{b.Recipe.Name},
		FS: fs, Seed: seed, Budget: b.cfg.MachineBudget,
	})
}

// NewMachine builds a fresh machine for the benchmark's program.
func (b *Benchmark) NewMachine(seed int64) (*vm.Machine, error) {
	s, err := b.session(harness.ModeMeasure, seed)
	if err != nil {
		return nil, err
	}
	return s.Machine, nil
}

// Prepare runs the full pipeline for one recipe through the checkpoint
// farm: profile and SimPoint selection first, then per-region logging and
// conversion fanned out across the worker pool (Config.Jobs). Per-region
// failures degrade gracefully exactly as the serial pipeline did —
// classified and recovered (re-log, then alternates) or dropped, never
// aborting the regions that did work — and results merge in selection
// order, so the output is byte-identical regardless of worker count.
func Prepare(r workloads.Recipe, cfg Config) (*Benchmark, error) {
	cfg.defaults()
	exe, err := workloads.Build(r)
	if err != nil {
		return nil, err
	}
	b := &Benchmark{Recipe: r, Exe: exe, cfg: cfg, inj: fault.New(cfg.Fault)}

	f := b.newFarm(cfg.Jobs)
	var slots []*regionBuild

	selectJob := &farm.Job{
		ID: "select", Stage: "select",
		Run: func() error {
			sel, err := simpoint.Select(b.Profile, simpoint.Options{
				MaxK: cfg.MaxK, Seed: cfg.Seed,
			})
			if err != nil {
				return err
			}
			b.Selection = sel
			b.pass = newForwardPass(b, sel.Regions)
			// Fan out: one region chain per selected region, live while
			// the farm runs.
			slots = make([]*regionBuild, len(sel.Regions))
			for i, s := range sel.Regions {
				rb := &regionBuild{
					b: b, f: f, id: fmt.Sprintf("region%d", i), sel: s,
					slices: append([]int{s.SliceIndex}, s.Alternates...),
				}
				slots[i] = rb
				if err := rb.submit(); err != nil {
					return err
				}
			}
			return nil
		},
	}
	var selectErr error
	if err := f.Add(&farm.Job{
		ID: "profile", Stage: "profile",
		Probe: func() bool { return b.useStore() && b.loadCachedProfile() },
		Run: func() error {
			s, err := b.session(harness.ModeMeasure, cfg.Seed)
			if err != nil {
				return err
			}
			if b.Profile, err = bbv.CollectSession(s, cfg.SliceSize); err != nil {
				return err
			}
			b.TotalInstructions = s.Machine.GlobalRetired
			if b.useStore() {
				if err := b.storeProfile(); err != nil {
					b.cacheErrs.Add(1)
				}
			}
			return nil
		},
		OnDone: func(res *farm.Result) {
			if res.Err == nil {
				selectErr = f.Add(selectJob)
			}
		},
	}); err != nil {
		return nil, err
	}

	out := f.Run()
	b.JobStats = out.Counters
	if res := out.Results["profile"]; res.Err != nil {
		return nil, res.Err
	}
	if selectErr != nil {
		return nil, selectErr
	}
	if res := out.Results["select"]; res.Err != nil {
		return nil, res.Err
	}

	// Deterministic merge: selection order, never completion order.
	for _, rb := range slots {
		if rb.reg != nil {
			b.Regions = append(b.Regions, rb.reg)
		}
		if rb.ev != nil {
			b.Degradation.record(*rb.ev, rb.evWeight)
		}
	}
	if len(b.Regions) == 0 && len(b.Selection.Regions) > 0 {
		return nil, fmt.Errorf("%w: %s: none of %d selected regions usable",
			ErrAllRegionsFailed, r.Name, len(b.Selection.Regions))
	}
	return b, nil
}

// newFarm builds a farm for region work with the pipeline's seeded retry
// backoff.
func (b *Benchmark) newFarm(workers int) *farm.Farm {
	f := farm.New(workers)
	f.SetBackoff(&farm.Backoff{Seed: uint64(b.cfg.Seed)})
	return f
}

// ckptOn reports whether the checkpointed constrained-replay stage is armed.
func (b *Benchmark) ckptOn() bool { return b.cfg.CkptEvery > 0 }

// buildRegion builds slice as an ELFie for sel's region on demand — how
// validation gets an alternate — by running the same stage chain Prepare
// runs, alone on a one-worker farm: re-log retry, replay stage when armed,
// and caching only once every stage passed. It returns nil when the slice
// cannot be built.
func (b *Benchmark) buildRegion(sel simpoint.Region, slice int) *Region {
	rb := &regionBuild{
		b: b, f: b.newFarm(1), id: fmt.Sprintf("slice%d", slice),
		sel: sel, slices: []int{slice},
	}
	if err := rb.submit(); err != nil {
		return nil
	}
	rb.f.Run()
	return rb.reg
}

// regionWindow computes the capture window for a slice: warm-up clamped at
// program start, then the slice itself.
func (b *Benchmark) regionWindow(slice int) (start, warmup uint64) {
	sliceStart := uint64(slice) * b.cfg.SliceSize
	warmup = b.cfg.WarmupSize
	if warmup > sliceStart {
		warmup = sliceStart
	}
	return sliceStart - warmup, warmup
}

// sliceName names the pinball (and ELFie) captured for a slice.
func (b *Benchmark) sliceName(slice int) string {
	return fmt.Sprintf("%s.s%d", b.Recipe.Name, slice)
}

// logSlice captures one slice (plus warm-up) as a fat pinball — the
// "log" stage of the per-region pipeline — from the forward pass's nearest
// snapshot.
func (b *Benchmark) logSlice(slice int) (*pinball.Pinball, error) {
	cfg := b.cfg
	start, warmup := b.regionWindow(slice)
	s, err := b.logSession(start)
	if err != nil {
		return nil, err
	}
	pb, err := pinplay.LogSession(s, pinplay.LogOptions{
		Name:         b.sliceName(slice),
		RegionStart:  start,
		RegionLength: warmup + cfg.SliceSize,
		WarmupLength: warmup,
	}.Fat())
	if err != nil {
		return nil, failf(FailLogging, "log slice %d: %v", slice, err)
	}
	if b.inj != nil {
		// Round-trip the pinball through storage so injected corruption can
		// strike and the integrity manifest is verified in-pipeline.
		if pb, err = roundTrip(pb, b.inj); err != nil {
			return nil, err // typed pinball errors classify as corrupt-pinball
		}
	}
	return pb, nil
}

// convertRegion turns a logged pinball into an ELFie (with sysstate when
// configured) — the "convert" stage — and caches the finished artifact.
func (b *Benchmark) convertRegion(sel simpoint.Region, slice int, pb *pinball.Pinball) (*Region, error) {
	cfg := b.cfg
	start, warmup := b.regionWindow(slice)
	reg := &Region{
		Region: sel, SliceUsed: slice,
		StartIcount: start, Warmup: warmup, Pinball: pb,
	}

	opts := core.Options{
		GracefulExit: true,
		Marker:       core.MarkerSSC,
		MarkerTag:    cfg.MarkerTag,
	}
	if cfg.UseSysState {
		st, err := sysstate.Analyze(pb)
		if err != nil {
			return nil, failf(FailConversion, "sysstate: %v", err)
		}
		reg.SysState = st
		opts.SysState = st.Ref("/sysstate")
	}
	res, err := core.Convert(pb, opts)
	if err != nil {
		return nil, failf(FailConversion, "convert slice %d: %v", slice, err)
	}
	reg.ELFie = res.Exe
	reg.Restore = res.RestoreMap
	if len(res.PerfPeriods) > 0 {
		reg.TailInstr = res.PerfPeriods[0] - pb.Meta.RegionLength[0]
	}
	return reg, nil
}

// lintRegion statically verifies a freshly converted region — the post-
// convert farm stage. A lint failure degrades the region exactly like a
// corrupt pinball: classified, charged against the region, and recovered
// through alternates. Under fault injection the region's restore stub is
// first damaged by flip (an ElfieBitflip claimed for this attempt, or
// nil), so chaos plans exercise the same path a genuinely broken converter
// would.
func (b *Benchmark) lintRegion(reg *Region, flip *fault.StubFlip) error {
	if flip != nil {
		corruptRestoreStub(reg, flip)
	}
	rep, err := elflint.Lint(reg.ELFie, elflint.Options{
		Pinball: reg.Pinball, Restore: reg.Restore, Semantic: true,
	})
	if err != nil {
		return failf(FailLint, "lint %s: %v", reg.Pinball.Name, err)
	}
	if !rep.OK() {
		return failf(FailLint, "lint %s: %d findings, first: %s",
			reg.Pinball.Name, len(rep.Findings), rep.Findings[0])
	}
	return nil
}

// stubTailBytes is thread 0's restore tail — popf, one pop per GPR and
// the final indirect jump, all single-word instructions — which ends at
// the target literal.
const stubTailBytes = (1 + isa.NumGPR + 1) * 8

// claimStubFlip claims any armed ElfieBitflip rule for the restore stub
// of the ELFie that slice will convert to.
func (b *Benchmark) claimStubFlip(slice int) *fault.StubFlip {
	return b.inj.ClaimRestoreStub(b.sliceName(slice), stubTailBytes)
}

// corruptRestoreStub applies flip to thread 0's restore tail inside the
// region's ELFie.
func corruptRestoreStub(reg *Region, flip *fault.StubFlip) {
	sec := reg.ELFie.Section(".elfie.text")
	target, ok := reg.ELFie.Symbol("__elfie_t0_target")
	if sec == nil || !ok {
		return
	}
	lo := target.Value - stubTailBytes
	if lo < sec.Addr || target.Value > sec.Addr+sec.DataSize() {
		return
	}
	flip.Apply(sec.Data[lo-sec.Addr : target.Value-sec.Addr])
}

// cacheRegion stores a region that passed static verification; artifacts
// that fail lint must never become warm cache hits.
func (b *Benchmark) cacheRegion(reg *Region) {
	if b.useStore() {
		if err := b.storeRegion(reg); err != nil {
			b.cacheErrs.Add(1)
		}
	}
}

// elfieConfig assembles the harness parts for a region's native ELFie run:
// the serialized-and-reparsed ELFie image, the guest filesystem (input file
// plus installed sysstate), and the pipeline injector. ELFie runs are the
// injection target: kernel rules (syscall errors, exhaustion) and VM rules
// (forced faults, ungraceful exit) both apply.
func (b *Benchmark) elfieConfig(reg *Region, seed int64) (harness.Config, error) {
	buf, err := reg.ELFie.Write()
	if err != nil {
		return harness.Config{}, err
	}
	exe, err := elfobj.Read(buf)
	if err != nil {
		return harness.Config{}, err
	}
	fs := kernel.NewFS()
	if b.Recipe.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	cfg := harness.Config{
		Mode: harness.ModeNative, Exe: exe, Argv: []string{"elfie"},
		FS: fs, Seed: seed,
		Budget:   4 * (reg.Warmup + b.cfg.SliceSize + 1_000_000),
		Injector: b.inj,
	}
	if reg.SysState != nil {
		cfg.SysState = reg.SysState
	}
	return cfg, nil
}

// RunELFie executes a region's ELFie natively on a fresh machine (with its
// sysstate installed when present) and returns the machine.
func (b *Benchmark) RunELFie(reg *Region, seed int64) (*vm.Machine, error) {
	cfg, err := b.elfieConfig(reg, seed)
	if err != nil {
		return nil, err
	}
	s, err := harness.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Machine, nil
}

// ELFieSession returns the region's native-run session, building it (one
// ELFie serialization round-trip) on first use and Reset-reusing it for
// every later trial — state-for-state equivalent to a fresh RunELFie at
// the same seed, without the per-trial serialization.
func (b *Benchmark) ELFieSession(reg *Region, seed int64) (*harness.Session, error) {
	if reg.sess != nil {
		if err := reg.sess.Reset(seed); err != nil {
			return nil, err
		}
		return reg.sess, nil
	}
	cfg, err := b.elfieConfig(reg, seed)
	if err != nil {
		return nil, err
	}
	s, err := harness.New(cfg)
	if err != nil {
		return nil, err
	}
	reg.sess = s
	return s, nil
}

// Completed reports whether a finished ELFie run ended where its region
// ends: no fault, no thread still alive, and either the counted thread's
// (thread 0's) counter fired, or the program exited on its own with status
// 0 after thread 0 retired its whole period — a final partial slice ends on
// the program's exit_group, before the overflow check can run. A machine
// stopped by its instruction budget or a stop request has live threads and
// never counts as completed.
func Completed(m *vm.Machine) bool {
	if m.FatalFault != nil || len(m.Threads) == 0 || m.AliveCount() > 0 {
		return false
	}
	t0 := m.Threads[0]
	pcs := t0.PerfCounters()
	if len(pcs) != 1 {
		return false
	}
	p := pcs[0]
	return p.Fired || (m.ExitStatus == 0 && t0.ExitStatus == 0 && p.Count(t0) >= p.Period)
}
