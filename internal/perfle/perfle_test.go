package perfle

import (
	"testing"

	"elfie/internal/asm"
	"elfie/internal/core"
	"elfie/internal/kernel"
	"elfie/internal/pinplay"
	"elfie/internal/vm"
)

func machineFor(t *testing.T, src string) *vm.Machine {
	t.Helper()
	exe, err := asm.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), 1)
	m, err := vm.NewLoaded(k, exe, []string{"p"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 50_000_000
	return m
}

const markedProg = `
	.text
	.global _start
_start:
	movi r8, 0
startup:
	addi r8, r8, 1
	cmpi r8, 5000
	jnz  startup       # 15000 instructions of "startup"
	sscmark 0x77
	movi r8, 0
work:
	muli r9, r9, 25
	addi r9, r9, 1
	addi r8, r8, 1
	cmpi r8, 30000
	jnz  work          # 150000 instructions of "application"
	movi r0, 231
	movi r1, 0
	syscall
`

func TestMeasureWholeRun(t *testing.T) {
	m := machineFor(t, markedProg)
	rep, err := MeasureRun(m, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instructions != m.GlobalRetired {
		t.Errorf("measured %d, retired %d", rep.Instructions, m.GlobalRetired)
	}
	if cpi := rep.CPI(); cpi < 0.2 || cpi > 10 {
		t.Errorf("CPI = %v", cpi)
	}
}

func TestMarkerGating(t *testing.T) {
	m := machineFor(t, markedProg)
	rep, err := MeasureRun(m, Options{Cores: 1, StartMarker: 0x77})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MarkerSeen {
		t.Fatal("marker not seen")
	}
	// Only the ~150k application instructions counted (plus the tail).
	if rep.Instructions < 150_000 || rep.Instructions > 151_000 {
		t.Errorf("measured %d, want ~150k", rep.Instructions)
	}
}

// TestMarkerSimicsELFie: an ELFie converted with the Simics marker flavour
// starts its region with MAGIC, and the measurement finds it.
func TestMarkerSimicsELFie(t *testing.T) {
	pb, err := pinplay.Log(machineFor(t, markedProg),
		pinplay.LogOptions{Name: "r", RegionStart: 40_000, RegionLength: 60_000}.Fat())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Convert(pb, core.Options{GracefulExit: true, Marker: core.MarkerSimics, MarkerTag: 0x99})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewLoaded(kernel.New(kernel.NewFS(), 1), res.Exe, []string{"elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 1_000_000
	rep, err := MeasureRun(m, Options{Cores: 1, StartMarker: 0x99})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MarkerSeen || rep.Instructions < 60_000 || rep.Instructions >= m.GlobalRetired {
		t.Errorf("marker seen %v, measured %d of %d retired", rep.MarkerSeen, rep.Instructions, m.GlobalRetired)
	}
}

func TestMarkerMissing(t *testing.T) {
	m := machineFor(t, markedProg)
	_, err := MeasureRun(m, Options{Cores: 1, StartMarker: 0xdead})
	if err == nil {
		t.Error("missing marker not reported")
	}
}

func TestSlicesAndWindow(t *testing.T) {
	m := machineFor(t, markedProg)
	rep, err := MeasureRun(m, Options{
		Cores: 1, StartMarker: 0x77, SliceSize: 30_000, SkipInstr: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slices) < 4 {
		t.Fatalf("slices: %d", len(rep.Slices))
	}
	for i, s := range rep.Slices {
		if s.Instructions != 30_000 {
			t.Errorf("slice %d: %d instructions", i, s.Instructions)
		}
		if s.CPI() <= 0 {
			t.Errorf("slice %d: CPI %v", i, s.CPI())
		}
	}
	if rep.WindowInstructions == 0 || rep.WindowInstructions > rep.Instructions-60_000+10 {
		t.Errorf("window instructions = %d of %d", rep.WindowInstructions, rep.Instructions)
	}
	if rep.WindowCPI() <= 0 {
		t.Errorf("window CPI = %v", rep.WindowCPI())
	}
}

func TestMultiThreadedMeasurement(t *testing.T) {
	m := machineFor(t, `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk+8192
	limm r3, worker
	syscall
	movi r8, 0
a:	addi r8, r8, 1
	cmpi r8, 60000
	jnz  a
	movi r0, 60
	syscall
worker:
	movi r8, 0
b:	addi r8, r8, 1
	cmpi r8, 40000
	jnz  b
	movi r0, 60
	syscall
	.bss
stk: .space 8192
`)
	rep, err := MeasureRun(m, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerThread[0].Instructions == 0 || rep.PerThread[1].Instructions == 0 {
		t.Errorf("per-core stats: %+v", rep.PerThread)
	}
	// Critical path >= each core.
	for i, st := range rep.PerThread {
		if st.Cycles > rep.Cycles {
			t.Errorf("core %d cycles %d > max %d", i, st.Cycles, rep.Cycles)
		}
	}
}
