// replay performs constrained replay of a pinball, injecting recorded
// system-call side effects and enforcing the recorded thread order.
// With -replay:injection=0, the pinball re-executes against live kernel
// state instead — the paper's aid for debugging ELFie failures.
//
// Usage:
//
//	replay -pinball pinballs/gcc.r1
//	replay -pinball pinballs/gcc.r1 -replay:injection=0 -in /input.dat=./input.dat
//	replay -pinball pinballs/gcc.r1 -fault plan.json
//	replay -pinball pinballs/gcc.r1 -ckpt-every 200000 -ckpt-out ck
//	replay -store cache -key region-abc
//	replay -store cache -remote http://host:9535 -key region-abc
//
// With -key, the pinball comes from a region artifact in the
// content-addressed store (pulled through from -remote on a local miss)
// instead of files on disk.
//
// With -ckpt-every, the replay drops a resumable mid-run checkpoint pinball
// (<name>.ckpt, newest wins) into -ckpt-out every N instructions; validate
// it with `elflint -ckpt ck/<name>.ckpt`, resume it with `replay -pinball`.
//
// Exit codes: 0 replay completed, 2 corrupt pinball or plan, 3 divergence,
// 1 anything else.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"elfie/internal/cli"
	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
)

func main() {
	pbPath := flag.String("pinball", "", "pinball path (directory/name)")
	injection := flag.Bool("replay:injection", true, "inject logged side effects and thread order")
	jitter := flag.Int("jitter", 0, "scheduler jitter (injection-less mode)")
	ckptEvery := flag.Uint64("ckpt-every", 0,
		"save a resumable mid-run checkpoint every N instructions (0 = off)")
	ckptOut := flag.String("ckpt-out", "",
		"directory for -ckpt-every checkpoints (default: the pinball's directory)")
	key := flag.String("key", "", "replay the pinball inside the region artifact stored under this key (-store required)")
	c := cli.Register(cli.FlagSeed | cli.FlagFault | cli.FlagIn | cli.FlagStore | cli.FlagRemote)
	flag.Parse()
	if *pbPath == "" && *key == "" {
		cli.Die(fmt.Errorf("-pinball or -key required"))
	}
	if *pbPath != "" && *key != "" {
		cli.Die(fmt.Errorf("-pinball and -key are mutually exclusive"))
	}

	plan, err := c.Plan()
	if err != nil {
		cli.DieClassified(err)
	}
	var pb *pinball.Pinball
	var name, dir string
	if *key != "" {
		pb, err = loadStoredPinball(c, *key)
		if err != nil {
			cli.DieClassified(err)
		}
		name, dir = pb.Name, "."
	} else {
		dir, name = filepath.Split(*pbPath)
		if dir == "" {
			dir = "."
		}
		pb, err = pinball.Load(dir, name)
		if err != nil {
			cli.DieClassified(err)
		}
	}
	if pb.Unverified {
		fmt.Fprintf(os.Stderr, "warning: %s has a legacy manifest; integrity unverified\n", name)
	}
	fs, err := c.FS()
	if err != nil {
		cli.Die(err)
	}
	opts := pinplay.ReplayOptions{
		Injection: *injection, SchedSeed: c.Seed, SchedJitter: *jitter,
		Injector: fault.New(plan),
	}
	if *ckptEvery > 0 {
		out := *ckptOut
		if out == "" {
			out = dir
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			cli.Die(err)
		}
		opts.Ckpt = &harness.CkptOptions{
			Every: *ckptEvery,
			Save:  func(ck *pinball.Pinball) error { return ck.Save(out) },
		}
	}
	res, err := pinplay.Replay(pb, kernel.New(fs, c.Seed), opts)
	if err != nil {
		cli.DieClassified(err)
	}
	fmt.Printf("replay of %s: completed=%v injected=%d\n", name, res.Completed, res.InjectedSyscalls)
	for tid, n := range res.PerThread {
		want := uint64(0)
		if tid < len(pb.Meta.RegionLength) {
			want = pb.Meta.RegionLength[tid]
		}
		fmt.Printf("  thread %d: %d / %d instructions\n", tid, n, want)
	}
	if res.Diverged {
		printDivergence(res.Divergence)
		os.Exit(cli.ExitDivergence)
	}
}

// loadStoredPinball fetches a region artifact from the -store/-remote cache
// and parses its pinball members, with the same integrity verification a
// disk load gets. The pinball's name comes from the artifact's region.json
// (falling back to the *.global.log member for artifacts without one).
func loadStoredPinball(c *cli.Common, key string) (*pinball.Pinball, error) {
	files, err := c.FetchArtifact(key)
	if err != nil {
		return nil, err
	}
	name := ""
	if meta, ok := files["region.json"]; ok {
		var rm struct {
			PinballName string `json:"pinball_name"`
		}
		if json.Unmarshal(meta, &rm) == nil {
			name = rm.PinballName
		}
	}
	if name == "" {
		for member := range files {
			if strings.HasSuffix(member, ".global.log") {
				name = strings.TrimSuffix(member, ".global.log")
				break
			}
		}
	}
	if name == "" {
		return nil, fmt.Errorf("artifact %q does not look like a region (no region.json or *.global.log)", key)
	}
	return pinball.ReadFileSet(name, files, pinball.ReadOptions{})
}

// printDivergence renders the structured report field by field, so scripts
// and humans both see where the replay left the logged trajectory.
func printDivergence(d *pinplay.DivergenceReport) {
	if d == nil {
		fmt.Println("  DIVERGED (no report)")
		return
	}
	fmt.Printf("  DIVERGED [%s] thread %d at pc=%#x retired=%d (global %d)\n",
		d.Kind, d.TID, d.PC, d.Retired, d.GlobalRetired)
	switch d.Kind {
	case pinplay.DivergeSyscallMismatch:
		fmt.Printf("    expected syscall %s (%d), got %s (%d)\n",
			d.ExpectedSyscall, d.ExpectedNum, d.ActualSyscall, d.ActualNum)
		for _, rd := range d.RegDiff {
			fmt.Printf("    %s: expected %#x, actual %#x\n", rd.Name, rd.Expected, rd.Actual)
		}
	case pinplay.DivergeUnloggedSyscall:
		fmt.Printf("    unlogged syscall %s (%d)\n", d.ActualSyscall, d.ActualNum)
	case pinplay.DivergeFault:
		fmt.Printf("    fault: %v\n", d.Fault)
	}
}
