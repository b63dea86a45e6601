// pinpoints drives the end-to-end PinPoints pipeline on a named workload:
// profile, SimPoint region selection, pinball capture, sysstate extraction,
// ELFie generation — and optionally validates the selection.
//
// Usage:
//
//	pinpoints -list
//	pinpoints -bench 602.gcc_t -out work/gcc
//	pinpoints -bench 602.gcc_t -validate native
//	pinpoints -bench 602.gcc_t -validate sim
//	pinpoints -bench 602.gcc_t -store cache -ckpt-every 200000
//
// With -store, the store is the run's resume state: re-running a killed
// run with the same flags serves every profile and region the killed run
// stored, and continues each interrupted checkpointed replay from its
// region's newest checkpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"elfie/internal/cli"
	"elfie/internal/coresim"
	"elfie/internal/pinpoints"
	"elfie/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list available workloads")
	bench := flag.String("bench", "", "workload name")
	out := flag.String("out", "", "write pinballs/ELFies under this directory")
	validate := flag.String("validate", "", "validate selection: native or sim")
	slice := flag.Uint64("slicesize", 200_000, "slice size (instructions)")
	warmup := flag.Uint64("warmup", 800_000, "warm-up region (instructions)")
	maxK := flag.Int("maxk", 50, "maximum number of phases")
	trials := flag.Int("trials", 1, "native validation trials")
	ckptEvery := flag.Uint64("ckpt-every", 0,
		"checkpointed replay stage: checkpoint every N instructions (0 = off)")
	c := cli.Register(cli.FlagSeed | cli.FlagJobs | cli.FlagStore | cli.FlagRemote)
	flag.Parse()

	if *list {
		for _, suite := range []struct {
			name    string
			recipes []workloads.Recipe
		}{
			{"train rate-int", workloads.TrainIntRate()},
			{"ref rate", workloads.RefRate()},
			{"speed OpenMP", workloads.SpeedOMP()},
			{"CPU2006", workloads.CPU2006()},
		} {
			fmt.Printf("%s:\n", suite.name)
			for _, r := range suite.recipes {
				fmt.Printf("  %-20s threads=%d ~%dM instructions\n",
					r.Name, r.Threads, r.ApproxInstructions()/1_000_000)
			}
		}
		return
	}
	if *bench == "" {
		cli.Die(fmt.Errorf("-bench or -list required"))
	}
	recipe, ok := workloads.ByName(*bench)
	if !ok {
		cli.Die(fmt.Errorf("unknown workload %q (try -list)", *bench))
	}

	cfg := pinpoints.Config{
		SliceSize: *slice, WarmupSize: *warmup, MaxK: *maxK,
		Seed: c.Seed, UseSysState: true, Jobs: c.Jobs,
		CkptEvery: *ckptEvery,
	}
	cache, err := c.OpenCache()
	if err != nil {
		cli.DieClassified(err)
	}
	cfg.Store = cache
	b, err := pinpoints.Prepare(recipe, cfg)
	if err != nil {
		cli.DieClassified(err)
	}
	fmt.Printf("%s: %d instructions, %d slices, %d phases, %d regions\n",
		recipe.Name, b.TotalInstructions, len(b.Profile.Slices),
		b.Selection.K, len(b.Regions))
	fmt.Printf("farm: %s", &b.JobStats)
	for _, st := range b.JobStats.SortedStages() {
		ss := b.JobStats.Stages[st]
		fmt.Printf(" %s=%.0fms", st, ss.Wall.Seconds()*1000)
	}
	fmt.Println()
	for _, reg := range b.Regions {
		fmt.Printf("  cluster %d: slice %d, weight %.3f, warm-up %d\n",
			reg.Cluster, reg.SliceUsed, reg.Weight, reg.Warmup)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			cli.Die(err)
		}
		for _, reg := range b.Regions {
			if err := reg.Pinball.Save(*out); err != nil {
				cli.Die(err)
			}
			elfiePath := filepath.Join(*out, fmt.Sprintf("%s.elfie", reg.Pinball.Name))
			if err := cli.WriteELF(elfiePath, reg.ELFie); err != nil {
				cli.Die(err)
			}
			if reg.SysState != nil {
				if err := reg.SysState.SaveDir(elfiePath + ".sysstate"); err != nil {
					cli.Die(err)
				}
			}
		}
		fmt.Printf("artifacts written to %s\n", *out)
	}

	switch *validate {
	case "":
	case "native":
		for trial := 0; trial < *trials; trial++ {
			v, err := pinpoints.ValidateNative(b, c.Seed+int64(trial)*101)
			if err != nil {
				cli.Die(err)
			}
			fmt.Printf("trial %d %s\n", trial+1, v)
		}
	case "sim":
		v, err := pinpoints.ValidateSim(b, coresim.Skylake1(coresim.FrontendSDE))
		if err != nil {
			cli.Die(err)
		}
		fmt.Println(v)
	default:
		cli.Die(fmt.Errorf("unknown validation mode %q", *validate))
	}
}
