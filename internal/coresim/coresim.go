// Package coresim implements the CoreSim-style detailed x86 many-core
// simulator of the paper's §IV.C case study, with two front-ends:
//
//   - FrontendSDE: user-space-only simulation (the SDE front-end) — only
//     ring-3 instructions reach the timing model;
//   - FrontendSimics: full-system simulation — system calls and periodic
//     timer interrupts inject synthetic kernel (ring-0) instruction
//     streams that share the caches and TLBs with the application, so the
//     "relatively few OS instructions" exert disproportionate pressure on
//     the memory hierarchy, as Table IV reports.
package coresim

import (
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pin"
	"elfie/internal/uarch"
	"elfie/internal/vm"
)

// Frontend selects the simulation front-end.
type Frontend int

// Front-ends.
const (
	FrontendSDE Frontend = iota
	FrontendSimics
)

// Config selects the simulated machine.
type Config struct {
	Cores    int
	Core     uarch.CoreCfg
	Hier     uarch.HierarchyCfg
	Frontend Frontend
	// TimerIntervalInstr injects a timer-interrupt kernel stream every N
	// user instructions in full-system mode (default 100k).
	TimerIntervalInstr uint64
	FreqGHz            float64
	// StartMarker skips everything before the given MAGIC/SSCMARK tag.
	StartMarker uint32
}

// Skylake1 is the Table IV configuration: one detailed Skylake core.
func Skylake1(fe Frontend) Config {
	return Config{
		Cores:              1,
		Core:               uarch.SkylakeCore(),
		Hier:               uarch.DesktopHierarchy(1),
		Frontend:           fe,
		TimerIntervalInstr: 100_000,
		FreqGHz:            3.0,
	}
}

// Result is a detailed-simulation outcome.
type Result struct {
	// Ring3Instr / Ring0Instr split user and kernel instructions.
	Ring3Instr uint64
	Ring0Instr uint64
	Cycles     uint64
	RuntimeNs  float64
	// FootprintBytes is the total data footprint (unique lines touched).
	FootprintBytes uint64
	// Cache/TLB statistics.
	L2MissRate   float64
	DTLBMissRate float64
	ITLBMissRate float64
	PerCore      []uarch.CoreStats
}

// CPI returns cycles per (total) instruction.
func (r *Result) CPI() float64 {
	n := r.Ring3Instr + r.Ring0Instr
	if n == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(n)
}

// Sim is a configured CoreSim instance attached to one machine run.
type Sim struct {
	cfg     Config
	drv     *uarch.Driver[*uarch.OOOCore]
	kstream *kernelStream
	// userInstr counts windowed instructions, for the timer tick.
	userInstr uint64
	lastTick  uint64
}

// Attach installs the simulator on a machine (composing with existing
// hooks, e.g. replay injection).
func Attach(m *vm.Machine, cfg Config) *Sim {
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if cfg.TimerIntervalInstr == 0 {
		cfg.TimerIntervalInstr = 100_000
	}
	s := &Sim{cfg: cfg, kstream: newKernelStream()}
	s.drv = uarch.Attach(m, uarch.NewOOOCore, cfg.Core, cfg.Hier, cfg.Cores, cfg.StartMarker)
	// Full-system: inject a kernel stream per system call and per timer
	// tick.
	if cfg.Frontend == FrontendSimics {
		s.drv.After = s.tick
		pin.NewEngine(m).Attach(&pin.Tool{
			Name: "coresim-kernel",
			OnSyscall: func(t *vm.Thread, num uint64, res kernel.Result) {
				if s.drv.Measuring() {
					s.injectKernel(t.TID, num, res)
				}
			},
		})
	}
	return s
}

// tick injects a timer-interrupt kernel stream every TimerIntervalInstr
// user instructions.
func (s *Sim) tick(d *uarch.DynInst) {
	s.userInstr++
	if s.userInstr-s.lastTick >= s.cfg.TimerIntervalInstr {
		s.lastTick = s.userInstr
		s.kstream.emit(s.drv.Core(d.TID), syscallTimerTick, 0)
	}
}

// injectKernel feeds the synthetic ring-0 stream for one system call into
// the core that executed it.
func (s *Sim) injectKernel(tid int, num uint64, res kernel.Result) {
	bytes := 0
	if num == kernel.SysRead || num == kernel.SysWrite {
		if int64(res.Ret) > 0 {
			bytes = int(res.Ret)
		}
	}
	s.kstream.emit(s.drv.Core(tid), num, bytes)
}

// Finish closes the simulation and returns the result.
func (s *Sim) Finish() *Result {
	perCore, total := s.drv.Finish()
	res := &Result{
		Ring3Instr:     total.Instructions - total.KernelInstr,
		Ring0Instr:     total.KernelInstr,
		Cycles:         total.Cycles,
		FootprintBytes: s.drv.Hier.FootprintBytes(),
		PerCore:        perCore,
	}
	var dtlbA, dtlbM, itlbA, itlbM, l2a, l2m uint64
	for i, c := range s.drv.Cores {
		dtlbA += c.DTLB.Accesses
		dtlbM += c.DTLB.Misses
		itlbA += c.ITLB.Accesses
		itlbM += c.ITLB.Misses
		l2a += s.drv.Hier.L2For(i).Accesses
		l2m += s.drv.Hier.L2For(i).Misses
	}
	if s.cfg.FreqGHz > 0 {
		res.RuntimeNs = float64(res.Cycles) / s.cfg.FreqGHz
	}
	if dtlbA > 0 {
		res.DTLBMissRate = float64(dtlbM) / float64(dtlbA)
	}
	if itlbA > 0 {
		res.ITLBMissRate = float64(itlbM) / float64(itlbA)
	}
	if l2a > 0 {
		res.L2MissRate = float64(l2m) / float64(l2a)
	}
	return res
}

// Simulate runs the machine to completion under the simulator.
func Simulate(m *vm.Machine, cfg Config) (*Result, error) {
	s := Attach(m, cfg)
	if err := harness.WrapRun(harness.ModeSim, m.Run()); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}
