package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"elfie/internal/bbv"
	"elfie/internal/core"
	"elfie/internal/coresim"
	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/farm"
	"elfie/internal/harness"
	"elfie/internal/perfle"
	"elfie/internal/pin"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/pinpoints"
	"elfie/internal/simpoint"
	"elfie/internal/sysstate"
	"elfie/internal/workloads"
)

// counts are the work counters the serial composition records beside its
// spans, so ratios are taken where the work happens.
type counts struct {
	profileInstr  uint64 // instructions of the profiled run
	vmInstr       [2]uint64
	vmTime        [2]time.Duration // plain, hooked
	logInstr      uint64           // instructions every Log call executed
	capturedInstr uint64           // region instructions the pinballs hold
	pinballBytes  int64
	elfieBytes    int64
	semanticSteps int
	k             int
	elfies        string
	elfieInstr    uint64 // instructions the measured ELFie runs retired
	simInstr      uint64 // instructions CoreSim simulated
	pullBytes     int64
	blobsSkipped  int
	pulled        string
}

// compose runs the pipeline serially from public calls of each layer, with
// a span around every call, under root. Prepare's traced run has already
// produced bm; the composition re-does its work layer by layer and
// measures bm's regions the way validation does.
func (b *bench) compose(tr *tracer, root int, bm *pinpoints.Benchmark, c *counts) error {
	var exe *elfobj.File
	if err := tr.do("workloads.build", root, func() (err error) {
		exe, err = workloads.Build(b.recipe)
		return err
	}); err != nil {
		return err
	}
	if b.w.consume {
		if err := b.composePull(tr, root, c); err != nil {
			return err
		}
		// Profile, log, convert and lint ran in set-up. Prepare still
		// selects, on the pulled profile; so does the composition.
		cfg := pipelineConfig(b.seed)
		var sel *simpoint.Result
		if err := tr.do("simpoint.select", root, func() (err error) {
			sel, err = simpoint.Select(bm.Profile, simpoint.Options{MaxK: cfg.MaxK, Seed: cfg.Seed})
			return err
		}); err != nil {
			return err
		}
		c.k = sel.K
	} else {
		if err := b.composeVM(tr, root, exe, c); err != nil {
			return err
		}
		if err := b.composeProduce(tr, root, exe, c); err != nil {
			return err
		}
	}
	if b.w.sim {
		return b.composeSim(tr, root, bm, exe, c)
	}
	return b.composeNative(tr, root, bm, exe, c)
}

// programSession builds a session of the workload program, as Prepare and
// validation do for profiling, logging and whole-program measurement.
func (b *bench) programSession(tr *tracer, parent int, mode harness.Mode, exe *elfobj.File, seed int64) (*harness.Session, error) {
	var s *harness.Session
	err := tr.do("harness.new", parent, func() (err error) {
		s, err = harness.New(harness.Config{
			Mode: mode, Exe: exe, Argv: []string{b.recipe.Name},
			FS: b.programFS(), Seed: seed, Budget: pipelineConfig(b.seed).MachineBudget,
		})
		return err
	})
	return s, err
}

// composeVM runs the program plainly on the chained core and with an
// ICounter pintool on the per-instruction path: the ceiling and the floor
// for profile and log, which run hooked.
func (b *bench) composeVM(tr *tracer, root int, exe *elfobj.File, c *counts) error {
	for i, name := range []string{"vm.chained", "vm.hooked"} {
		s, err := b.programSession(tr, root, harness.ModeNative, exe, b.seed)
		if err != nil {
			return err
		}
		if i == 1 {
			pin.NewEngine(s.Machine).Attach(&pin.NewICounter().Tool)
		}
		id := tr.begin(name, root)
		t0 := time.Now()
		err = s.Run()
		c.vmTime[i] = time.Since(t0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		c.vmInstr[i] = s.Machine.GlobalRetired
	}
	return nil
}

// composeProduce is Prepare's work done serially: profile, select, and per
// region log → sysstate → convert → lint.
func (b *bench) composeProduce(tr *tracer, root int, exe *elfobj.File, c *counts) error {
	cfg := pipelineConfig(b.seed)
	s, err := b.programSession(tr, root, harness.ModeMeasure, exe, cfg.Seed)
	if err != nil {
		return err
	}
	var prof *bbv.Profile
	if err := tr.do("bbv.profile", root, func() (err error) {
		prof, err = bbv.CollectSession(s, cfg.SliceSize)
		return err
	}); err != nil {
		return err
	}
	c.profileInstr = s.Machine.GlobalRetired
	var sel *simpoint.Result
	if err := tr.do("simpoint.select", root, func() (err error) {
		sel, err = simpoint.Select(prof, simpoint.Options{MaxK: cfg.MaxK, Seed: cfg.Seed})
		return err
	}); err != nil {
		return err
	}
	c.k = sel.K

	var hashes []string
	for _, r := range sel.Regions {
		sliceStart := uint64(r.SliceIndex) * cfg.SliceSize
		warmup := min(cfg.WarmupSize, sliceStart)
		ls, err := b.programSession(tr, root, harness.ModeLog, exe, cfg.Seed)
		if err != nil {
			return err
		}
		var pb *pinball.Pinball
		if err := tr.do("pinplay.log", root, func() (err error) {
			pb, err = pinplay.Log(ls.Machine, pinplay.LogOptions{
				Name:         fmt.Sprintf("%s.s%d", b.recipe.Name, r.SliceIndex),
				RegionStart:  sliceStart - warmup,
				RegionLength: warmup + cfg.SliceSize,
				WarmupLength: warmup,
			}.Fat())
			return err
		}); err != nil {
			return err
		}
		c.logInstr += ls.Machine.GlobalRetired
		for _, n := range pb.Meta.RegionLength {
			c.capturedInstr += n
		}
		files, err := pb.FileSet()
		if err != nil {
			return err
		}
		for _, data := range files {
			c.pinballBytes += int64(len(data))
		}

		var st *sysstate.State
		if err := tr.do("sysstate.analyze", root, func() (err error) {
			st, err = sysstate.Analyze(pb)
			return err
		}); err != nil {
			return err
		}
		var res *core.Result
		if err := tr.do("core.convert", root, func() (err error) {
			res, err = core.Convert(pb, core.Options{
				GracefulExit: true, Marker: core.MarkerSSC, MarkerTag: cfg.MarkerTag,
				SysState: st.Ref("/sysstate"),
			})
			return err
		}); err != nil {
			return err
		}
		var rep *elflint.Report
		if err := tr.do("elflint.lint", root, func() (err error) {
			rep, err = elflint.Lint(res.Exe, elflint.Options{
				Pinball: pb, Restore: res.RestoreMap, Semantic: true,
			})
			return err
		}); err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("lint %s: %d findings", pb.Name, len(rep.Findings))
		}
		c.semanticSteps += rep.SemanticSteps
		bin, err := res.Exe.Write()
		if err != nil {
			return err
		}
		c.elfieBytes += int64(len(bin))
		hashes = append(hashes, sha(bin))
	}
	c.elfies = joinSorted(hashes)
	return nil
}

// composePull pulls every published entry into a fresh store with the
// registry client, one Client.Pull per entry.
func (b *bench) composePull(tr *tracer, root int, c *counts) error {
	st, err := b.openStore("pull-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.Root())
	entries, err := b.client.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := tr.do("registry.pull", root, func() error {
			_, ts, err := b.client.Pull(st, e.Key)
			if err == nil {
				c.pullBytes += ts.Bytes
				c.blobsSkipped += ts.Skipped
			}
			return err
		}); err != nil {
			return fmt.Errorf("pull %s: %w", e.Key, err)
		}
	}
	c.pulled, err = regionHashes(st)
	return err
}

// elfieSession builds a region's native-run session the way validation
// does: the ELFie serialized and re-read, input file and sysstate
// installed.
func (b *bench) elfieSession(reg *pinpoints.Region, seed int64) (*harness.Session, error) {
	bin, err := reg.ELFie.Write()
	if err != nil {
		return nil, err
	}
	exe, err := elfobj.Read(bin)
	if err != nil {
		return nil, err
	}
	cfg := harness.Config{
		Mode: harness.ModeNative, Exe: exe, Argv: []string{"elfie"},
		FS: b.programFS(), Seed: seed,
		Budget: 4 * (reg.Warmup + pipelineConfig(b.seed).SliceSize + 1_000_000),
	}
	if reg.SysState != nil {
		cfg.SysState = reg.SysState
	}
	return harness.New(cfg)
}

// regionSession returns the region's session, built on first use and
// Reset for later trials, as ValidateNative reuses it.
func (b *bench) regionSession(tr *tracer, root int, sessions map[int]*harness.Session, i int, reg *pinpoints.Region, seed int64) (*harness.Session, error) {
	if s := sessions[i]; s != nil {
		return s, tr.do("harness.reset", root, func() error { return s.Reset(seed) })
	}
	var s *harness.Session
	err := tr.do("harness.new", root, func() (err error) {
		s, err = b.elfieSession(reg, seed)
		return err
	})
	sessions[i] = s
	return s, err
}

// composeNative is ValidateNative done serially: the whole program, then
// every region's ELFie, under the hardware model, for every trial.
func (b *bench) composeNative(tr *tracer, root int, bm *pinpoints.Benchmark, exe *elfobj.File, c *counts) error {
	cfg := pipelineConfig(b.seed)
	sessions := make(map[int]*harness.Session)
	for t := 0; t < b.w.trials; t++ {
		seed := b.seed + 101*int64(t)
		s, err := b.programSession(tr, root, harness.ModeMeasure, exe, seed)
		if err != nil {
			return err
		}
		if err := tr.do("perfle.whole", root, func() error {
			_, err := perfle.MeasureRun(s.Machine, perfle.Options{Cores: 1, NoiseSeed: seed})
			return err
		}); err != nil {
			return err
		}
		for i, reg := range bm.Regions {
			rs, err := b.regionSession(tr, root, sessions, i, reg, seed)
			if err != nil {
				return err
			}
			if err := tr.do("perfle.region", root, func() error {
				ms := perfle.Attach(rs.Machine, perfle.Options{
					Cores: 1, StartMarker: cfg.MarkerTag,
					SkipInstr: reg.TailInstr + reg.Warmup,
					NoiseSeed: seed + int64(reg.SliceUsed),
				})
				if err := rs.Run(); err != nil {
					return err
				}
				// A primary ELFie that misses its graceful exit is not an
				// error here: validation falls back to an alternate, and
				// the farm's validate stage times that.
				ms.Finish()
				return nil
			}); err != nil {
				return err
			}
			c.elfieInstr += rs.Machine.GlobalRetired
		}
	}
	return nil
}

// composeSim is ValidateSim done serially: the whole program, then every
// region's ELFie, under CoreSim.
func (b *bench) composeSim(tr *tracer, root int, bm *pinpoints.Benchmark, exe *elfobj.File, c *counts) error {
	cfg := pipelineConfig(b.seed)
	simCfg := coresim.Skylake1(coresim.FrontendSDE)
	s, err := b.programSession(tr, root, harness.ModeMeasure, exe, cfg.Seed)
	if err != nil {
		return err
	}
	if err := tr.do("coresim.whole", root, func() error {
		res, err := coresim.Simulate(s.Machine, simCfg)
		if err == nil {
			c.simInstr += res.Ring3Instr + res.Ring0Instr
		}
		return err
	}); err != nil {
		return err
	}
	sessions := make(map[int]*harness.Session)
	for i, reg := range bm.Regions {
		rs, err := b.regionSession(tr, root, sessions, i, reg, cfg.Seed)
		if err != nil {
			return err
		}
		if err := tr.do("coresim.region", root, func() error {
			rc := simCfg
			rc.StartMarker = cfg.MarkerTag
			sim := coresim.Attach(rs.Machine, rc)
			if err := rs.Run(); err != nil {
				return err
			}
			res := sim.Finish()
			c.simInstr += res.Ring3Instr + res.Ring0Instr
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// traceIteration is one iteration of a traced run: an untraced pipeline
// job as the reference, then under one root span the same job traced
// (Prepare with the timing store, validation) and the serial composition.
// It returns the iteration's per-layer samples.
func (b *bench) traceIteration(tr *tracer) (*iteration, map[string]float64, error) {
	ref, _, err := b.iterate(nil, -1)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]float64)
	farmMetrics(m, ref)
	untraced := ref.prepare + ref.validate
	// Release the reference job's artifacts, so the traced job starts from
	// a collected heap as the reference did.
	ref = nil
	runtime.GC()

	tr.newRun()
	root := tr.begin("run", -1)
	it, tc, err := b.iterate(tr, root)
	if err != nil {
		return nil, nil, err
	}
	var c counts
	if err := b.compose(tr, root, it.bm, &c); err != nil {
		return nil, nil, fmt.Errorf("serial composition: %w", err)
	}
	tr.end(root)

	if b.w.consume {
		it.check(c.pulled == b.published, "Client.Pull fetched a different ELFie set than set-up published")
	} else {
		it.check(c.elfies == it.fp.ELFies, "serial composition built a different ELFie set than Prepare")
		it.check(c.k == it.bm.Selection.K, "serial select found k=%d, Prepare k=%d", c.k, it.bm.Selection.K)
	}
	it.fp.LogInstr = c.logInstr

	spans := subtree(tr.snapshot(), root)
	layerMetrics(m, spans, &c)
	storeMetrics(m, spans, tc, it)

	total := spans[0].dur()
	var sum time.Duration
	for layer, d := range layerSelf(spans) {
		sum += d
		m["self."+layer+"_s"] = d.Seconds()
	}
	it.check((sum-total).Abs() < time.Duration(len(spans))*time.Nanosecond+time.Microsecond,
		"layer self times add up to %v, traced total is %v", sum, total)
	m["trace.total_s"] = total.Seconds()
	m["trace.uncovered_s"] = m["self.uncovered_s"]
	delete(m, "self.uncovered_s")
	m["trace.spans"] = float64(len(spans))
	overhead := it.prepare + it.validate - untraced
	m["trace.overhead_s"] = overhead.Seconds()
	m["trace.overhead_frac"] = overhead.Seconds() / untraced.Seconds()
	return it, m, nil
}

// sumSpans totals the durations of the spans named name.
func sumSpans(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// layerMetrics derives the per-layer metrics of the serial composition.
func layerMetrics(m map[string]float64, spans []span, c *counts) {
	secs := func(name string) float64 { return sumSpans(spans, name).Seconds() }
	rate := func(n uint64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	for name, v := range map[string]float64{
		"workloads.build_s":       secs("workloads.build"),
		"bbv.profile_s":           secs("bbv.profile"),
		"bbv.profile_mips":        rate(c.profileInstr, secs("bbv.profile")) / 1e6,
		"vm.chained_mips":         rate(c.vmInstr[0], c.vmTime[0].Seconds()) / 1e6,
		"vm.hooked_mips":          rate(c.vmInstr[1], c.vmTime[1].Seconds()) / 1e6,
		"pinplay.log_s":           secs("pinplay.log"),
		"pinplay.log_instr":       float64(c.logInstr),
		"pinplay.log_useful_frac": rate(c.capturedInstr, float64(c.logInstr)),
		"pinplay.pinball_mb":      float64(c.pinballBytes) / 1e6,
		"simpoint.select_s":       secs("simpoint.select"),
		"simpoint.k":              float64(c.k),
		"sysstate.analyze_s":      secs("sysstate.analyze"),
		"core.convert_s":          secs("core.convert"),
		"core.elfie_mb":           float64(c.elfieBytes) / 1e6,
		"elflint.lint_s":          secs("elflint.lint"),
		"elflint.semantic_steps":  float64(c.semanticSteps),
		"registry.pull_s":         secs("registry.pull"),
		"registry.pull_mb":        float64(c.pullBytes) / 1e6,
		"registry.blobs_skipped":  float64(c.blobsSkipped),
		"harness.new_s":           secs("harness.new"),
		"harness.reset_s":         secs("harness.reset"),
		"perfle.whole_s":          secs("perfle.whole"),
		"perfle.region_s":         secs("perfle.region"),
		"perfle.elfie_mips":       rate(c.elfieInstr, secs("perfle.region")) / 1e6,
		"coresim.whole_s":         secs("coresim.whole"),
		"coresim.region_s":        secs("coresim.region"),
		"coresim.kips":            rate(c.simInstr, secs("coresim.whole")+secs("coresim.region")) / 1e3,
	} {
		m[name] = v
	}
}

// farmStages are the farm stages of Prepare and validation.
var farmStages = []string{"profile", "select", "log", "convert", "lint", "measure-whole", "validate"}

// farmMetrics reads the farm's own counters of an untraced pipeline job.
func farmMetrics(m map[string]float64, it *iteration) {
	all := []farm.Counters{it.bm.JobStats}
	for _, v := range it.vals {
		all = append(all, v.JobStats)
	}
	var busy time.Duration
	var run, cached, retried int
	stage := make(map[string]time.Duration)
	for _, c := range all {
		run += c.Run
		cached += c.Cached
		retried += c.Retried
		for name, ss := range c.Stages {
			stage[name] += ss.Wall
			busy += ss.Wall
		}
	}
	for _, name := range farmStages {
		m["farm.stage."+name+"_s"] = stage[name].Seconds()
	}
	m["farm.busy_s"] = busy.Seconds()
	m["farm.utilization"] = busy.Seconds() / ((it.prepare + it.validate).Seconds() * jobs)
	m["farm.jobs_run"] = float64(run)
	m["farm.jobs_cached"] = float64(cached)
	m["farm.retries"] = float64(retried)
}

// storeMetrics reads the timing decorator of the traced Prepare, and sets
// the store writes made inside the farm's lint stage beside that stage's
// wall time, so store cost is not read as lint cost.
func storeMetrics(m map[string]float64, spans []span, tc *timedCache, it *iteration) {
	put := sumSpans(spans, "store.put")
	get := sumSpans(spans, "store.get")
	prepare := -1
	for _, s := range spans {
		if s.Name == "pinpoints.prepare" {
			prepare = s.ID
		}
	}
	var inLint time.Duration
	for _, s := range spans {
		if s.Name == "store.put" && s.Note == "region" && s.Parent == prepare {
			inLint += s.dur()
		}
	}
	m["store.put_s"] = put.Seconds()
	m["store.get_s"] = get.Seconds()
	m["store.put_mb"] = float64(tc.putBytes) / 1e6
	m["store.hit_frac"] = 0
	if tc.gets > 0 {
		m["store.hit_frac"] = float64(tc.hits) / float64(tc.gets)
	}
	m["store.dedup_ratio"] = it.dedup
	lint := it.bm.JobStats.Stage("lint").Wall
	m["farm.lint_stage_s"] = lint.Seconds()
	m["store.put_in_lint_s"] = inLint.Seconds()
	m["farm.lint_stage_excl_put_s"] = (lint - inLint).Seconds()
}
