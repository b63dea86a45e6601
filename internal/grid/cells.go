package grid

import (
	"fmt"
	"time"

	"elfie/internal/cli"
	"elfie/internal/core"
	"elfie/internal/coresim"
	"elfie/internal/fault"
	"elfie/internal/gem5sim"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pin"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/pinpoints"
	"elfie/internal/results"
	"elfie/internal/sniper"
	"elfie/internal/sysstate"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

// Kind-default pipeline parameters, shared by every grid that leaves the
// experiment's knobs unset.
const (
	defaultSliceSize   = 100_000
	defaultWarmup      = 400_000
	defaultMaxK        = 10
	defaultMachineCap  = 5_000_000_000
	defaultNativeInstr = 2_000_000
)

// Execute runs one cell to a results row. It never returns an error: a
// failing (or panicking) cell degrades to a recorded failure row carrying
// the exit-taxonomy code, so one bad cell cannot take down the grid.
func Execute(c *Cell) (row results.Cell) {
	row = results.Cell{
		ID:         c.ID,
		Experiment: c.Exp.Name,
		Kind:       c.Exp.Kind,
		Workload:   c.Recipe.Name,
		Mode:       c.Mode,
		Jobs:       c.Jobs,
		FaultRate:  c.Fault,
		Seed:       c.Seed,
		Warmup:     c.Warmup,
		Status:     "ok",
	}
	defer func() {
		if r := recover(); r != nil {
			fail(&row, fmt.Errorf("cell panicked: %v", r))
		}
	}()
	if testPanic != nil {
		testPanic()
	}
	var err error
	switch c.Exp.Kind {
	case KindVMCore:
		err = runVMCore(c, &row)
	case KindOverhead:
		err = runOverhead(c, &row)
	case KindValidate:
		err = runValidate(c, &row)
	case KindStats:
		err = runStats(c, &row)
	case KindSniper:
		err = runSniper(c, &row)
	case KindFullSystem:
		err = runFullSystem(c, &row)
	case KindGem5:
		err = runGem5(c, &row)
	default:
		err = fmt.Errorf("%w: unknown kind %q", cli.ErrCorruptInput, c.Exp.Kind)
	}
	if err != nil {
		fail(&row, err)
		return row
	}
	row.Finalize()
	return row
}

// testPanic, when non-nil, fires at the top of Execute — the hook tests use
// to exercise the panic-to-failure-row recovery path.
var testPanic func()

// fail marks the row as a recorded failure with its taxonomy code.
func fail(row *results.Cell, err error) {
	code, _ := cli.Classify(err)
	row.Status = "failed"
	row.ExitCode = code
	row.Error = err.Error()
	row.Samples = nil
}

// faultPlan builds the cell's injection plan (nil when the rate axis is 0).
func (c *Cell) faultPlan() *fault.Plan {
	if c.Fault <= 0 {
		return nil
	}
	return &fault.Plan{
		Seed:  c.Seed,
		Rules: []fault.Rule{{Point: fault.SyscallError, Prob: c.Fault}},
	}
}

// recipeFS builds the guest filesystem a recipe needs.
func recipeFS(r workloads.Recipe) *kernel.FS {
	fs := kernel.NewFS()
	if r.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	return fs
}

// session composes a harness session for a recipe run.
func (c *Cell) session(eng harness.Engine, budget uint64) (*harness.Session, error) {
	exe, err := workloads.Build(c.Recipe)
	if err != nil {
		return nil, err
	}
	return harness.New(harness.Config{
		Mode:     harness.ModeMeasure,
		Exe:      exe,
		Argv:     []string{c.Recipe.Name},
		FS:       recipeFS(c.Recipe),
		Seed:     c.Seed,
		Engine:   eng,
		Budget:   budget,
		Injector: fault.New(c.faultPlan()),
	})
}

// timeRun measures one machine run, returning the observed sample.
func timeRun(s *harness.Session) (results.Sample, error) {
	start := time.Now()
	err := s.Run()
	el := time.Since(start).Seconds()
	if err != nil {
		return results.Sample{}, err
	}
	n := s.Machine.GlobalRetired
	return results.Sample{
		Instructions: n,
		Seconds:      el,
		MIPS:         float64(n) / el / 1e6,
	}, nil
}

// runVMCore measures execution-core throughput on one engine. Repeats
// reuse the session via Reset — the cheap-trial path the grid exists to
// exploit.
func runVMCore(c *Cell, row *results.Cell) error {
	budget := c.Exp.Budget
	if budget == 0 {
		budget = 100_000_000
	}
	eng := harness.EngineChained
	if c.Mode == "interp" {
		eng = harness.EngineInterp
	}
	s, err := c.session(eng, budget)
	if err != nil {
		return err
	}
	for rep := 0; rep < c.Repeats; rep++ {
		if rep > 0 {
			if err := s.Reset(c.Seed); err != nil {
				return err
			}
		}
		if c.Mode == "hooked" {
			// The profiling configuration: per-instruction path with an
			// OnIns pintool attached. Re-attached per repeat — Reset clears
			// hooks.
			pin.NewEngine(s.Machine).Attach(&pin.NewICounter().Tool)
		}
		sample, err := timeRun(s)
		if err != nil {
			return err
		}
		if c.Fault == 0 {
			if !s.Machine.Halted && s.Machine.AliveCount() > 0 {
				return fmt.Errorf("workload did not finish (retired %d)", s.Machine.GlobalRetired)
			}
			if s.Machine.ExitStatus != 0 {
				return fmt.Errorf("workload exited with status %d", s.Machine.ExitStatus)
			}
		}
		row.Samples = append(row.Samples, sample)
	}
	return nil
}

// regionFor picks the cell's capture window (experiment overrides win).
func (c *Cell) regionFor(defStart, defST, defMT uint64) (start, length uint64) {
	start, length = defStart, defST
	if c.Recipe.Threads > 1 {
		length = defMT
	}
	if c.Exp.RegionStart > 0 {
		start = c.Exp.RegionStart
	}
	if c.Exp.RegionLength > 0 {
		length = c.Exp.RegionLength
	}
	return start, length
}

// logged is a captured region plus the machine that recorded it.
type logged struct {
	Pinball *pinball.Pinball
	Machine *vm.Machine
}

// logRegion captures a fat pinball of the cell's recipe.
func (c *Cell) logRegion(name string, start, length uint64, seed int64) (*logged, error) {
	exe, err := workloads.Build(c.Recipe)
	if err != nil {
		return nil, err
	}
	s, err := harness.New(harness.Config{
		Mode: harness.ModeLog, Exe: exe, Argv: []string{c.Recipe.Name},
		FS: recipeFS(c.Recipe), Seed: seed, Budget: defaultMachineCap,
	})
	if err != nil {
		return nil, err
	}
	pb, err := pinplay.Log(s.Machine, pinplay.LogOptions{
		Name: name, RegionStart: start, RegionLength: length,
	}.Fat())
	if err != nil {
		return nil, err
	}
	return &logged{Pinball: pb, Machine: s.Machine}, nil
}

// runOverhead measures one Table I row: the instruction rate of one
// execution mode, reported in MIPS so overhead factors fall out as rate
// ratios across the mode axis.
func runOverhead(c *Cell, row *results.Cell) error {
	start, length := c.regionFor(60_000, 400_000, 800_000)
	for rep := 0; rep < c.Repeats; rep++ {
		seed := c.Seed + int64(rep)
		var sample results.Sample
		switch c.Mode {
		case "native":
			budget := c.Exp.Budget
			if budget == 0 {
				budget = defaultNativeInstr
			}
			s, err := c.session(harness.EngineChained, budget)
			if err != nil {
				return err
			}
			if sample, err = timeRun(s); err != nil {
				return err
			}
		case "record":
			exe, err := workloads.Build(c.Recipe)
			if err != nil {
				return err
			}
			s, err := harness.New(harness.Config{
				Mode: harness.ModeLog, Exe: exe, Argv: []string{c.Recipe.Name},
				FS: recipeFS(c.Recipe), Seed: seed, Budget: defaultMachineCap,
			})
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := pinplay.Log(s.Machine, pinplay.LogOptions{
				Name: "grid", RegionStart: start, RegionLength: length,
			}.Fat()); err != nil {
				return err
			}
			el := time.Since(t0).Seconds()
			n := s.Machine.GlobalRetired
			sample = results.Sample{Instructions: n, Seconds: el, MIPS: float64(n) / el / 1e6}
		case "replay":
			lr, err := c.logRegion("grid", start, length, c.Seed)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := pinplay.Replay(lr.Pinball, kernel.New(kernel.NewFS(), seed),
				pinplay.ReplayOptions{Injection: true})
			if err != nil {
				return err
			}
			el := time.Since(t0).Seconds()
			n := res.Machine.GlobalRetired
			sample = results.Sample{Instructions: n, Seconds: el, MIPS: float64(n) / el / 1e6}
		case "elfie":
			lr, err := c.logRegion("grid", start, length, c.Seed)
			if err != nil {
				return err
			}
			conv, err := core.Convert(lr.Pinball, core.Options{GracefulExit: true})
			if err != nil {
				return err
			}
			s, err := harness.New(harness.Config{
				Mode: harness.ModeNative, Exe: conv.Exe, Argv: []string{"elfie"},
				Seed: seed, Sched: harness.SchedNative, Budget: 10 * length,
			})
			if err != nil {
				return err
			}
			if sample, err = timeRun(s); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: overhead mode %q", cli.ErrCorruptInput, c.Mode)
		}
		row.Samples = append(row.Samples, sample)
	}
	return nil
}

// pinpointsConfig resolves the cell's PinPoints pipeline knobs.
func (c *Cell) pinpointsConfig() pinpoints.Config {
	cfg := pinpoints.Config{
		SliceSize:   defaultSliceSize,
		WarmupSize:  defaultWarmup,
		MaxK:        defaultMaxK,
		Seed:        1,
		UseSysState: true,
		Jobs:        c.Jobs,
		Fault:       c.faultPlan(),
	}
	if c.Exp.SliceSize > 0 {
		cfg.SliceSize = c.Exp.SliceSize
	}
	if c.Exp.WarmupSize > 0 {
		cfg.WarmupSize = c.Exp.WarmupSize
	}
	if c.Warmup > 0 {
		cfg.WarmupSize = c.Warmup
	}
	if c.Exp.MaxK > 0 {
		cfg.MaxK = c.Exp.MaxK
	}
	return cfg
}

// runValidate performs the paper's §IV check for one workload: region CPI
// must predict whole-run CPI. Mode "native" measures ELFies under the
// hardware model; "sim" feeds the regions to CoreSim.
func runValidate(c *Cell, row *results.Cell) error {
	cfg := c.pinpointsConfig()
	bm, err := pinpoints.Prepare(c.Recipe, cfg)
	if err != nil {
		return err
	}
	for rep := 0; rep < c.Repeats; rep++ {
		var v *pinpoints.Validation
		switch c.Mode {
		case "native":
			v, err = pinpoints.ValidateNative(bm, c.Seed+int64(31*rep))
		case "sim":
			v, err = pinpoints.ValidateSim(bm, coresim.Skylake1(coresim.FrontendSDE))
		default:
			err = fmt.Errorf("%w: validate mode %q", cli.ErrCorruptInput, c.Mode)
		}
		if err != nil {
			return err
		}
		row.Samples = append(row.Samples, results.Sample{
			PredErrPct: 100 * v.Error,
			Coverage:   v.Coverage,
		})
		if rep == 0 {
			alts := 0
			for _, rc := range v.PerRegion {
				if rc.UsedAlternate >= 0 {
					alts++
				}
			}
			row.Extra = map[string]float64{
				"true_cpi":      v.TrueCPI,
				"predicted_cpi": v.PredictedCPI,
				"coverage":      v.Coverage,
				"alternates":    float64(alts),
				"regions":       float64(len(v.PerRegion)),
				"warmup_size":   float64(cfg.WarmupSize),
			}
		}
	}
	return nil
}

// runStats reports the Table III profile/selection statistics.
func runStats(c *Cell, row *results.Cell) error {
	bm, err := pinpoints.Prepare(c.Recipe, c.pinpointsConfig())
	if err != nil {
		return err
	}
	maxW := 0.0
	for _, reg := range bm.Regions {
		if reg.Weight > maxW {
			maxW = reg.Weight
		}
	}
	row.Samples = []results.Sample{{Instructions: bm.TotalInstructions}}
	row.Extra = map[string]float64{
		"slices":     float64(len(bm.Profile.Slices)),
		"regions":    float64(len(bm.Regions)),
		"max_weight": maxW,
	}
	return nil
}

// runSniper simulates one Fig. 11 row: the captured region as a constrained
// pinball or as an unconstrained native ELFie.
func runSniper(c *Cell, row *results.Cell) error {
	start, length := c.regionFor(50_000, 300_000, 2_400_000)
	lr, err := c.logRegion(c.Recipe.Name, start, length, c.Seed)
	if err != nil {
		return err
	}
	pb := lr.Pinball
	cfg := sniper.Gainestown8()
	end := sniper.EndCondition{PC: pb.Meta.EndPC, Count: pb.Meta.EndCount}
	var res *sniper.Result
	switch c.Mode {
	case "pinball":
		res, err = sniper.SimulatePinball(pb, cfg, end)
	case "elfie":
		conv, cerr := core.Convert(pb, core.Options{Marker: core.MarkerSniper, MarkerTag: 0x2b2b})
		if cerr != nil {
			return cerr
		}
		cfg.StartMarker = 0x2b2b
		res, err = sniper.SimulateELFie(conv.Exe, cfg, end, 42, 40*length)
	default:
		return fmt.Errorf("%w: sniper mode %q", cli.ErrCorruptInput, c.Mode)
	}
	if err != nil {
		return err
	}
	row.Samples = []results.Sample{{
		Instructions: res.Instructions,
		Seconds:      res.RuntimeNs / 1e9,
		MIPS:         float64(res.Instructions) / res.RuntimeNs * 1e3,
	}}
	row.Extra = map[string]float64{
		"recorded_instructions": float64(pb.Meta.TotalInstructions),
		"sim_instructions":      float64(res.Instructions),
		"runtime_us":            res.RuntimeNs / 1000,
	}
	return nil
}

// runFullSystem simulates one Table IV column: a SYSSTATE ELFie under
// CoreSim with the user-level (SDE) or full-system (Simics) frontend.
func runFullSystem(c *Cell, row *results.Cell) error {
	// Full-system comparison needs pre-region descriptor state for the
	// SYSSTATE path, so the workload always consumes /input.dat.
	c.Recipe.FileInput = true
	start, length := c.regionFor(50_000, 1_000_000, 1_000_000)
	lr, err := c.logRegion("fullsys", start, length, c.Seed)
	if err != nil {
		return err
	}
	st, err := sysstate.Analyze(lr.Pinball)
	if err != nil {
		return err
	}
	conv, err := core.Convert(lr.Pinball, core.Options{
		GracefulExit: true, Marker: core.MarkerSimics, MarkerTag: 0x99,
		SysState: st.Ref("/sysstate"),
	})
	if err != nil {
		return err
	}
	fe := coresim.FrontendSDE
	if c.Mode == "simics" {
		fe = coresim.FrontendSimics
	}
	s, err := harness.New(harness.Config{
		Mode: harness.ModeSim, Exe: conv.Exe, Argv: []string{"elfie"},
		FS: recipeFS(c.Recipe), SysState: st,
		Seed: 9, Budget: 20 * length,
	})
	if err != nil {
		return err
	}
	cfg := coresim.Skylake1(fe)
	cfg.StartMarker = 0x99
	cfg.TimerIntervalInstr = 50_000
	res, err := coresim.Simulate(s.Machine, cfg)
	if err != nil {
		return err
	}
	row.Samples = []results.Sample{{Instructions: res.Ring3Instr}}
	row.Extra = map[string]float64{
		"ring3_instr":    float64(res.Ring3Instr),
		"ring0_instr":    float64(res.Ring0Instr),
		"cycles":         float64(res.Cycles),
		"cpi":            res.CPI(),
		"footprint":      float64(res.FootprintBytes),
		"dtlb_miss_rate": res.DTLBMissRate,
	}
	return nil
}

// runGem5 simulates the workload's most representative region on one gem5
// SE-mode configuration (Table V).
func runGem5(c *Cell, row *results.Cell) error {
	cfg := c.pinpointsConfig()
	if c.Exp.WarmupSize == 0 && c.Warmup == 0 {
		cfg.WarmupSize = 200_000
	}
	if c.Exp.MaxK == 0 {
		cfg.MaxK = 8
	}
	bm, err := pinpoints.Prepare(c.Recipe, cfg)
	if err != nil {
		return err
	}
	if len(bm.Regions) == 0 {
		return fmt.Errorf("no regions selected for %s", c.Recipe.Name)
	}
	reg := bm.Regions[0]
	sim := gem5sim.NehalemSE()
	if c.Mode == "haswell" {
		sim = gem5sim.HaswellSE()
	}
	sim.StartMarker = 0x1010 // pinpoints pipeline marker tag
	res, err := gem5sim.Simulate(reg.ELFie, sim, 1)
	if err != nil {
		return err
	}
	row.Samples = []results.Sample{{Instructions: res.Instructions}}
	row.Extra = map[string]float64{
		"ipc":       res.IPC(),
		"cycles":    float64(res.Cycles),
		"slices":    float64(len(bm.Profile.Slices)),
		"rep_slice": float64(reg.SliceUsed),
	}
	return nil
}
