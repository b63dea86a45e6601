// Fullsystem: the §IV.C case study in miniature — simulate one ELFie on the
// detailed CoreSim model twice: with the user-level (SDE) front-end and
// with the full-system (Simics) front-end, and compare instruction counts,
// runtime, and data footprint (Table IV).
package main

import (
	"fmt"
	"log"

	"elfie/internal/core"
	"elfie/internal/coresim"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pinplay"
	"elfie/internal/sysstate"
	"elfie/internal/workloads"
)

func main() {
	r, _ := workloads.ByName("625.x264_t")
	r.FileInput = true // some system-call activity inside the region
	exe, err := workloads.Build(r)
	if err != nil {
		log.Fatal(err)
	}
	fs := kernel.NewFS()
	fs.WriteFile("/input.dat", workloads.InputFile())
	sess, err := harness.New(harness.Config{
		Mode: harness.ModeLog, Exe: exe, Argv: []string{r.Name},
		FS: fs, Seed: 1, Budget: 2_000_000_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("capturing a 1M-instruction x264-like region...")
	pb, err := pinplay.Log(sess.Machine, pinplay.LogOptions{
		Name: "x264.region", RegionStart: 50_000, RegionLength: 1_000_000,
	}.Fat())
	if err != nil {
		log.Fatal(err)
	}
	st, err := sysstate.Analyze(pb)
	if err != nil {
		log.Fatal(err)
	}
	conv, err := core.Convert(pb, core.Options{
		GracefulExit: true, Marker: core.MarkerSimics, MarkerTag: 0x99,
		SysState: st.Ref("/sysstate"),
	})
	if err != nil {
		log.Fatal(err)
	}

	run := func(fe coresim.Frontend) *coresim.Result {
		fs := kernel.NewFS()
		fs.WriteFile("/input.dat", workloads.InputFile())
		s, err := harness.New(harness.Config{
			Mode: harness.ModeSim, Exe: conv.Exe, Argv: []string{"elfie"},
			FS: fs, SysState: st, Seed: 9, Budget: 100_000_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg := coresim.Skylake1(fe)
		cfg.StartMarker = 0x99
		cfg.TimerIntervalInstr = 50_000
		res, err := coresim.Simulate(s.Machine, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	user := run(coresim.FrontendSDE)
	full := run(coresim.FrontendSimics)

	fmt.Printf("%-28s %15s %15s\n", "metric", "user-level(SDE)", "full-sys(Simics)")
	fmt.Printf("%-28s %15d %15d\n", "ring-3 instructions", user.Ring3Instr, full.Ring3Instr)
	fmt.Printf("%-28s %15d %15d\n", "ring-0 instructions", user.Ring0Instr, full.Ring0Instr)
	fmt.Printf("%-28s %15d %15d\n", "cycles", user.Cycles, full.Cycles)
	fmt.Printf("%-28s %15.4f %15.4f\n", "CPI", user.CPI(), full.CPI())
	fmt.Printf("%-28s %15d %15d\n", "data footprint (KiB)", user.FootprintBytes>>10, full.FootprintBytes>>10)
	fmt.Printf("%-28s %15.4f %15.4f\n", "DTLB miss rate (%)", 100*user.DTLBMissRate, 100*full.DTLBMissRate)

	extraI := 100 * float64(full.Ring0Instr) / float64(full.Ring3Instr)
	extraT := 100 * (float64(full.Cycles)/float64(user.Cycles) - 1)
	extraF := 100 * (float64(full.FootprintBytes)/float64(user.FootprintBytes) - 1)
	fmt.Printf("\nOS interference: +%.1f%% instructions -> +%.1f%% runtime, +%.1f%% footprint\n",
		extraI, extraT, extraF)
	fmt.Println("(the few kernel instructions have a disproportionate effect — Table IV)")
}
