// simrun runs a PVM binary (typically an ELFie) under one of the three
// timing simulators of the paper's case studies.
//
// Usage:
//
//	simrun -sim sniper -cores 8 elfie.elf
//	simrun -sim coresim -frontend simics -marker 0x99 elfie.elf
//	simrun -sim gem5 -config haswell -marker 0x55 elfie.elf
package main

import (
	"flag"
	"fmt"

	"elfie/internal/cli"
	"elfie/internal/coresim"
	"elfie/internal/gem5sim"
	"elfie/internal/harness"
	"elfie/internal/sniper"
	"elfie/internal/uarch"
)

func main() {
	simName := flag.String("sim", "sniper", "simulator: sniper, coresim, gem5")
	cores := flag.Int("cores", 8, "core count (sniper), 1..32")
	frontend := flag.String("frontend", "sde", "coresim front-end: sde (user-level) or simics (full-system)")
	config := flag.String("config", "nehalem", "gem5 processor config: nehalem or haswell")
	marker := flag.Uint64("marker", 0, "skip simulation until this marker tag")
	budget := flag.Uint64("max", 1_000_000_000, "instruction budget")
	endPC := flag.Uint64("end-pc", 0, "(PC, count) end condition: address")
	endCount := flag.Uint64("end-count", 0, "(PC, count) end condition: global execution count")
	c := cli.Register(cli.FlagSeed | cli.FlagIn)
	flag.Parse()
	if flag.NArg() != 1 {
		cli.Die(fmt.Errorf("usage: simrun [flags] prog.elf"))
	}
	if *cores < 1 || *cores > uarch.MaxCores {
		cli.Die(fmt.Errorf("usage: simrun -cores must be 1..%d, got %d", uarch.MaxCores, *cores))
	}
	exe, err := cli.LoadELF(flag.Arg(0))
	if err != nil {
		cli.DieClassified(err)
	}
	fs, err := c.FS()
	if err != nil {
		cli.Die(err)
	}

	switch *simName {
	case "sniper":
		cfg := sniper.Gainestown8()
		cfg.Cores = *cores
		cfg.Hier = uarch.DesktopHierarchy(*cores)
		end := sniper.EndCondition{PC: *endPC, Count: *endCount}
		res, err := sniper.SimulateELFie(exe, cfg, end, c.Seed, *budget)
		if err != nil {
			cli.DieClassified(err)
		}
		fmt.Printf("sniper: %d instructions, %d cycles, runtime %.2f us, end=%v\n",
			res.Instructions, res.Cycles, res.RuntimeNs/1000, res.EndReached)
		for i, st := range res.PerCore {
			if st.Instructions > 0 {
				fmt.Printf("  core %d: %d instr, IPC %.3f\n", i, st.Instructions, st.IPC())
			}
		}

	case "coresim":
		fe := coresim.FrontendSDE
		if *frontend == "simics" {
			fe = coresim.FrontendSimics
		}
		cfg := coresim.Skylake1(fe)
		cfg.StartMarker = uint32(*marker)
		s, err := cli.NewSession(harness.ModeSim, exe, fs, c.Seed, 0, *budget, flag.Args(), nil)
		if err != nil {
			cli.DieClassified(err)
		}
		res, err := coresim.Simulate(s.Machine, cfg)
		if err != nil {
			cli.DieClassified(err)
		}
		fmt.Printf("coresim (%s): ring3=%d ring0=%d cycles=%d CPI=%.4f footprint=%d KiB\n",
			*frontend, res.Ring3Instr, res.Ring0Instr, res.Cycles, res.CPI(),
			res.FootprintBytes>>10)
		fmt.Printf("  DTLB miss %.4f%%  ITLB miss %.4f%%  L2 miss %.2f%%\n",
			100*res.DTLBMissRate, 100*res.ITLBMissRate, 100*res.L2MissRate)

	case "gem5":
		cfg := gem5sim.NehalemSE()
		if *config == "haswell" {
			cfg = gem5sim.HaswellSE()
		}
		cfg.StartMarker = uint32(*marker)
		cfg.MaxInstructions = *budget
		res, err := gem5sim.Simulate(exe, cfg, c.Seed)
		if err != nil {
			cli.DieClassified(err)
		}
		fmt.Printf("gem5 SE (%s): %d instructions, %d cycles, IPC %.4f\n",
			*config, res.Instructions, res.Cycles, res.IPC())

	default:
		cli.Die(fmt.Errorf("unknown simulator %q", *simName))
	}
}
