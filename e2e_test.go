// End-to-end integration tests: the complete tool-chain through its
// on-disk artifact formats, exactly as the command-line tools drive it.
package elfie_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/core"
	"elfie/internal/elfobj"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/sysstate"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

// TestFullToolchainOnDisk drives: workload ELF on disk -> logger -> pinball
// files -> sysstate directory -> pinball2elf -> ELFie file -> native run.
// Every hand-off goes through serialized bytes, not shared memory.
func TestFullToolchainOnDisk(t *testing.T) {
	dir := t.TempDir()
	r, _ := workloads.ByName("600.perlbench_t") // FileInput recipe
	r.Sequence = r.Sequence[:12]

	// Build the workload and write it as an ELF file.
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	exePath := filepath.Join(dir, "prog.elf")
	bin, err := exe.Write()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(exePath, bin, 0o755); err != nil {
		t.Fatal(err)
	}

	// Reload it from disk and record a region.
	exeBytes, err := os.ReadFile(exePath)
	if err != nil {
		t.Fatal(err)
	}
	exe2, err := elfobj.Read(exeBytes)
	if err != nil {
		t.Fatal(err)
	}
	fs := kernel.NewFS()
	fs.WriteFile("/input.dat", workloads.InputFile())
	m, err := vm.NewLoaded(kernel.New(fs, 1), exe2, []string{r.Name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000_000
	pb, err := pinplay.Log(m, pinplay.LogOptions{
		Name: "e2e", RegionStart: 150_000, RegionLength: 400_000,
	}.Fat())
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Reload the pinball and extract sysstate, both via disk.
	pb2, err := pinball.Load(dir, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sysstate.Analyze(pb2)
	if err != nil {
		t.Fatal(err)
	}
	ssDir := filepath.Join(dir, "e2e.sysstate")
	if err := st.SaveDir(ssDir); err != nil {
		t.Fatal(err)
	}
	st2, err := sysstate.LoadDir(ssDir)
	if err != nil {
		t.Fatal(err)
	}

	// Convert to an ELFie, write, reload.
	conv, err := core.Convert(pb2, core.Options{
		GracefulExit: true,
		Marker:       core.MarkerSSC,
		MarkerTag:    0xe2e,
		SysState:     st2.Ref("/sysstate"),
	})
	if err != nil {
		t.Fatal(err)
	}
	elfiePath := filepath.Join(dir, "e2e.elfie")
	ebin, err := conv.Exe.Write()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(elfiePath, ebin, 0o755); err != nil {
		t.Fatal(err)
	}
	eBytes, err := os.ReadFile(elfiePath)
	if err != nil {
		t.Fatal(err)
	}
	elfie, err := elfobj.Read(eBytes)
	if err != nil {
		t.Fatal(err)
	}

	// Run natively on a fresh machine with only the sysstate contents.
	fs2 := kernel.NewFS()
	fs2.WriteFile("/input.dat", workloads.InputFile())
	st2.Install(fs2, "/sysstate")
	m2, err := vm.NewLoaded(kernel.New(fs2, 99), elfie, []string{"e2e.elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2.MaxInstructions = 10_000_000
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if m2.FatalFault != nil {
		t.Fatalf("ELFie faulted: %v", m2.FatalFault)
	}
	pcs := m2.Threads[0].PerfCounters()
	if len(pcs) != 1 || !pcs[0].Fired {
		t.Fatalf("graceful exit did not fire (retired %d)", m2.Threads[0].Retired)
	}
	if got := pcs[0].Count(m2.Threads[0]); got != conv.PerfPeriods[0] {
		t.Errorf("exact exit: counted %d, want %d", got, conv.PerfPeriods[0])
	}
}

// TestObjectRelink exercises §II.B.5: users can take the ELFie *object*
// (captured memory + contexts, no startup) plus the generated linker script
// and link their own startup code against it.
func TestObjectRelink(t *testing.T) {
	r, _ := workloads.ByName("641.leela_t")
	r.Sequence = r.Sequence[:6]
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewLoaded(kernel.New(kernel.NewFS(), 1), exe, []string{r.Name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000_000
	pb, err := pinplay.Log(m, pinplay.LogOptions{
		Name: "relink", RegionStart: 100_000, RegionLength: 100_000,
	}.Fat())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := core.Convert(pb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A custom user startup: restore nothing fancy — just jump straight to
	// the captured PC of thread 0 with the captured stack pointer. The
	// .t0.ctx symbol comes from the ELFie object; the layout comes from
	// the generated linker script.
	userStartup := `
	.section .custom.text, "ax"
	.global _start
_start:
	limm r1, .t0.ctx
	xrstor r1
	addi rsp, r1, 272     # flags offset within the context block
	popf
	pop r0
	pop r1
	pop r2
	pop r3
	pop r4
	pop r5
	pop r6
	pop r7
	pop r8
	pop r9
	pop r10
	pop r11
	pop r12
	pop r13
	pop rbp
	pop rsp
	jmpm target
target:
	.quad ` + hex(pb.Regs[0].PC) + `
`
	userObj, err := asm.Assemble(userStartup, "custom.s")
	if err != nil {
		t.Fatal(err)
	}
	// Parse the generated script text (as a user would from the .ldscript
	// file) and add a placement for the custom section.
	script, err := asm.ParseScript(conv.Script.Format())
	if err != nil {
		t.Fatal(err)
	}
	script.Add(".custom.text", 0x30000000, false)
	custom, err := asm.Link([]*elfobj.File{userObj, conv.Object}, asm.LinkOptions{
		Entry: "_start", Script: script,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The relinked ELFie reaches the captured PC with the captured GPRs.
	m2, err := vm.NewLoaded(kernel.New(kernel.NewFS(), 5), custom, []string{"custom"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2.MaxInstructions = 500_000
	reached := false
	m2.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
		if r.Branch && r.Target == pb.Regs[0].PC {
			reached = true
		}
	}
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatalf("custom startup never reached the captured PC\n%s", m2.DumpState())
	}
	if m2.FatalFault != nil &&
		!strings.Contains(m2.FatalFault.Error(), "exec") { // region end may fault; startup must not
		t.Logf("post-region fault (expected without graceful exit): %v", m2.FatalFault)
	}
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	buf := []byte{'0', 'x'}
	started := false
	for shift := 60; shift >= 0; shift -= 4 {
		d := (v >> uint(shift)) & 0xf
		if d != 0 || started || shift == 0 {
			started = true
			buf = append(buf, digits[d])
		}
	}
	return string(buf)
}
