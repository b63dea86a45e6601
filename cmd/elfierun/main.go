// elfierun executes a PVM ELF binary — typically an ELFie — natively on the
// virtual machine, the equivalent of simply running the ELFie on a Linux
// host in the paper.
//
// Usage:
//
//	elfierun -in /input.dat=./input.dat -seed 3 prog.elf [args...]
//	elfierun -fault plan.json prog.elf
//	elfierun -store cache -key region-abc [args...]
//	elfierun -store cache -remote http://host:9535 -key region-abc
//
// With -key, the ELFie (and its sysstate, if the artifact carries one)
// comes from the content-addressed store instead of a file; adding -remote
// pulls a missing artifact through from a registry first.
//
// Exit codes: the guest's exit status on a clean run; 3 when the run died on
// a fault (injected or organic) instead of exiting, or when the -max budget
// stopped it with threads still alive (the retired count goes to stderr); 2
// for corrupt inputs; 1 for internal errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"elfie/internal/cli"
	"elfie/internal/elfobj"
	"elfie/internal/harness"
)

func main() {
	jitter := flag.Int("jitter", 20, "scheduler quantum jitter (0 = deterministic)")
	budget := flag.Uint64("max", 10_000_000_000, "instruction budget")
	sysstateDir := flag.String("sysstate-host", "", "host directory with sysstate files to install at /sysstate")
	key := flag.String("key", "", "run the ELFie stored under this key (-store required)")
	c := cli.Register(cli.FlagSeed | cli.FlagFault | cli.FlagIn | cli.FlagStore | cli.FlagRemote)
	flag.Parse()
	if *key == "" && flag.NArg() < 1 {
		cli.Die(fmt.Errorf("usage: elfierun [flags] prog.elf [args...]  |  elfierun -store DIR -key KEY [args...]"))
	}

	plan, err := c.Plan()
	if err != nil {
		cli.DieClassified(err)
	}
	fs, err := c.FS()
	if err != nil {
		cli.Die(err)
	}
	var exe *elfobj.File
	args := flag.Args()
	if *key != "" {
		files, err := c.FetchArtifact(*key)
		if err != nil {
			cli.DieClassified(err)
		}
		img, ok := files["elfie.bin"]
		if !ok {
			cli.Die(fmt.Errorf("artifact %q has no elfie.bin member (kind mismatch?)", *key))
		}
		exe, err = cli.ParseELF(*key, img)
		if err != nil {
			cli.DieClassified(err)
		}
		if ss, ok := files["sysstate.json"]; ok && *sysstateDir == "" {
			if err := installSysstateJSON(fs, ss); err != nil {
				cli.DieClassified(err)
			}
		}
		args = append([]string{*key}, args...)
	} else {
		exe, err = cli.LoadELF(flag.Arg(0))
		if err != nil {
			cli.DieClassified(err)
		}
	}
	if *sysstateDir != "" {
		if err := installSysstate(fs, *sysstateDir); err != nil {
			cli.Die(err)
		}
	}
	s, err := cli.NewSession(harness.ModeNative, exe, fs, c.Seed, *jitter, *budget, args, plan)
	if err != nil {
		cli.DieClassified(err)
	}
	m := s.Machine
	if err := s.Run(); err != nil {
		cli.DieClassified(err)
	}
	cli.PrintRunSummary(m)
	if m.FatalFault != nil {
		fmt.Fprintf(os.Stderr, "error (divergence): run died on %v\n", m.FatalFault)
		os.Exit(cli.ExitDivergence)
	}
	if n := m.AliveCount(); n > 0 {
		fmt.Fprintf(os.Stderr, "error (divergence): budget stopped the run at %d retired instructions with %d threads alive\n",
			m.GlobalRetired, n)
		os.Exit(cli.ExitDivergence)
	}
	os.Exit(m.ExitStatus)
}
