// Package gem5sim implements the gem5-style binary-driven simulator of the
// paper's §IV.D case study: Syscall-Emulation (SE) mode over the detailed
// out-of-order core model, with selectable processor configurations
// (Nehalem-like and Haswell-like) to study resource-size sensitivity.
//
// Mirroring gem5's x86 ISA-extension limits (SSE/SSE2 only, driven by
// profiling with SDE -pentium), SE mode rejects binaries whose dynamic
// stream contains vector instructions unless AllowVector is set.
package gem5sim

import (
	"fmt"

	"elfie/internal/elfobj"
	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/uarch"
	"elfie/internal/vm"
)

// Config selects the simulated processor.
type Config struct {
	Core uarch.CoreCfg
	Hier uarch.HierarchyCfg
	// AllowVector permits vector instructions in the stream.
	AllowVector bool
	// StartMarker skips everything before the SSCMARK or MAGIC carrying
	// this tag (ELFie startup code).
	StartMarker uint32
	// MaxInstructions bounds the simulation (0 = unbounded).
	MaxInstructions uint64
}

// NehalemSE returns the Table V small configuration.
func NehalemSE() Config {
	return Config{Core: uarch.NehalemCore(), Hier: uarch.DesktopHierarchy(1)}
}

// HaswellSE returns the Table V large configuration.
func HaswellSE() Config {
	return Config{Core: uarch.HaswellCore(), Hier: uarch.DesktopHierarchy(1)}
}

// Result is an SE-mode simulation outcome.
type Result struct {
	Instructions uint64
	Cycles       uint64
	VectorOps    uint64
}

// IPC returns instructions per cycle — the Table V metric.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Simulate loads the binary (typically an ELFie) into a fresh SE-mode
// machine and simulates it on the configured core.
func Simulate(exe *elfobj.File, cfg Config, seed int64) (*Result, error) {
	s, err := harness.New(harness.Config{
		Mode: harness.ModeSim, Exe: exe, Argv: []string{"gem5-se"},
		Seed: seed, Budget: cfg.MaxInstructions,
	})
	if err != nil {
		return nil, err
	}
	return SimulateMachine(s.Machine, cfg)
}

// SimulateMachine simulates an already-prepared machine.
func SimulateMachine(m *vm.Machine, cfg Config) (*Result, error) {
	drv := uarch.Attach(m, uarch.NewOOOCore, cfg.Core, cfg.Hier, 1, cfg.StartMarker)
	res := &Result{}
	var isaErr error
	drv.After = func(d *uarch.DynInst) {
		if d.Class == isa.ClassVec || d.Ins.Op == isa.VLD || d.Ins.Op == isa.VST {
			res.VectorOps++
			if !cfg.AllowVector && isaErr == nil {
				isaErr = fmt.Errorf("gem5sim: unsupported ISA extension at pc %#x: %s (SE mode is SSE/SSE2-only; profile with -pentium)", d.PC, d.Ins.Op.Name())
				drv.Close()
			}
		}
	}
	if err := harness.WrapRun(harness.ModeSim, m.Run()); err != nil {
		return nil, err
	}
	_, total := drv.Finish()
	if isaErr != nil {
		return nil, isaErr
	}
	res.Instructions = total.Instructions
	res.Cycles = total.Cycles
	return res, nil
}
