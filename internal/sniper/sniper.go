// Package sniper implements the Sniper-style multicore timing simulator of
// the paper's §IV.B case study: an interval-model core per hardware context
// over a shared cache hierarchy, driven either by constrained replay of a
// pinball or by unconstrained native execution of an ELFie.
//
// Simulations end on a (PC, count) condition — the address of an
// instruction at the end of the region outside any spin loop, and its
// global execution count — exactly as the paper specifies for
// multi-threaded regions.
package sniper

import (
	"fmt"

	"elfie/internal/elfobj"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/uarch"
	"elfie/internal/vm"
)

// Config selects the simulated machine.
type Config struct {
	Cores int
	Core  uarch.CoreCfg
	Hier  uarch.HierarchyCfg
	// FreqGHz converts cycles to wall-clock runtime.
	FreqGHz float64
	// StartMarker, when non-zero, skips simulation until an SSC or MAGIC
	// marker with this tag executes — how ELFie startup code is excluded
	// (§II.B.5 marker support).
	StartMarker uint32
}

// Gainestown8 is the paper's 8-core Gainestown configuration.
func Gainestown8() Config {
	return Config{
		Cores:   8,
		Core:    uarch.GainestownCore(),
		Hier:    uarch.DesktopHierarchy(8),
		FreqGHz: 2.66,
	}
}

// EndCondition stops simulation when PC has executed Count times globally.
// A zero EndCondition never triggers.
type EndCondition struct {
	PC    uint64
	Count uint64
}

// Result is a simulation outcome.
type Result struct {
	PerCore []uarch.CoreStats
	// Instructions simulated, all cores.
	Instructions uint64
	// Cycles is the critical-path core cycle count.
	Cycles uint64
	// RuntimeNs is the predicted wall-clock runtime.
	RuntimeNs float64
	// EndReached reports whether the (PC, count) condition fired (vs. the
	// workload ending by itself or the budget running out).
	EndReached bool
}

// engine is one simulation: the uarch driver plus the end condition.
type engine struct {
	cfg     Config
	end     EndCondition
	endHits uint64
	drv     *uarch.Driver[*uarch.IntervalCore]
}

func (e *engine) attach(m *vm.Machine) {
	e.drv = uarch.Attach(m, uarch.NewIntervalCore, e.cfg.Core, e.cfg.Hier, e.cfg.Cores, e.cfg.StartMarker)
	if e.end.PC != 0 {
		e.drv.After = e.countEnd
	}
}

// countEnd closes the window, and stops the machine, on the end PC's
// Count-th execution.
func (e *engine) countEnd(d *uarch.DynInst) {
	if d.PC == e.end.PC {
		e.endHits++
		if e.endHits >= e.end.Count {
			e.drv.Close()
		}
	}
}

func (e *engine) result() *Result {
	res := &Result{EndReached: e.drv.Closed()}
	var total uarch.CoreStats
	res.PerCore, total = e.drv.Finish()
	res.Instructions, res.Cycles = total.Instructions, total.Cycles
	if e.cfg.FreqGHz > 0 {
		res.RuntimeNs = float64(res.Cycles) / e.cfg.FreqGHz
	}
	return res
}

// SimulatePinball performs a constrained simulation: injected replay with
// the recorded thread order, timed by the interval cores. This is the
// paper's "pinball simulation" whose thread interleaving is pre-determined.
func SimulatePinball(pb *pinball.Pinball, cfg Config, end EndCondition) (*Result, error) {
	e := &engine{cfg: cfg, end: end}
	k := kernel.New(kernel.NewFS(), 0)
	rres, err := pinplay.Replay(pb, k, pinplay.ReplayOptions{
		Injection: true,
		BeforeRun: e.attach,
	})
	if err != nil {
		return nil, err
	}
	res := e.result()
	if rres.Diverged && !res.EndReached {
		return res, fmt.Errorf("sniper: pinball replay diverged: %s", rres.DivergeReason)
	}
	return res, nil
}

// SimulateELFie performs an unconstrained simulation of an ELFie binary:
// the threads run free (with seeded scheduler jitter modeling a real
// machine), so spin-loop iteration counts and the interleaving differ from
// the recorded run — the behaviour Fig. 11 reports.
func SimulateELFie(exe *elfobj.File, cfg Config, end EndCondition, seed int64, budget uint64) (*Result, error) {
	// SchedNative models threads pinned to dedicated cores: coarse
	// jittering quanta let threads drift apart between barriers, and PAUSE
	// does not yield, so a waiting thread burns spin-loop instructions at
	// full rate — which is why unconstrained ELFie simulations retire more
	// instructions than the constrained pinball replay (Fig. 11).
	s, err := harness.New(harness.Config{
		Mode: harness.ModeSim, Exe: exe, Argv: []string{"elfie"},
		Seed: seed, Sched: harness.SchedNative, Budget: budget,
	})
	if err != nil {
		return nil, err
	}
	return SimulateMachine(s.Machine, cfg, end)
}

// SimulateMachine runs an already-constructed machine under the simulator
// (for callers that need custom filesystem or scheduler setup).
func SimulateMachine(m *vm.Machine, cfg Config, end EndCondition) (*Result, error) {
	e := &engine{cfg: cfg, end: end}
	e.attach(m)
	if err := harness.WrapRun(harness.ModeSim, m.Run()); err != nil {
		return nil, err
	}
	return e.result(), nil
}
