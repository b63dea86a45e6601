package uarch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pin"
	"elfie/internal/vm"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache(CacheCfg{SizeBytes: 4096, Ways: 4, LatCycles: 1})
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) || !c.Access(0x1030) {
		t.Error("warm access missed (same line?)")
	}
	if c.Access(0x2000) {
		t.Error("different line hit")
	}
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", c.MissRate())
	}
	c.Invalidate(0x1000)
	if c.Lookup(0x1000) {
		t.Error("line survived invalidation")
	}
}

func TestCacheLRU(t *testing.T) {
	// 2-way, 2 sets of 64B lines: lines 0,2,4 map to set 0.
	c := NewCache(CacheCfg{SizeBytes: 256, Ways: 2, LatCycles: 1})
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // 0 is MRU
	c.Access(4 * 64) // evicts 2 (LRU)
	if !c.Lookup(0) {
		t.Error("MRU line evicted")
	}
	if c.Lookup(2 * 64) {
		t.Error("LRU line not evicted")
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Any working set that fits in the cache has a 100% hit rate after the
	// first pass.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(CacheCfg{SizeBytes: 32 << 10, Ways: 8, LatCycles: 1})
		nlines := 1 + rng.Intn(256) // <= 16KB working set
		addrs := make([]uint64, nlines)
		base := uint64(rng.Intn(1024)) * 4096
		for i := range addrs {
			addrs[i] = base + uint64(i)*64
		}
		for _, a := range addrs {
			c.Access(a)
		}
		for pass := 0; pass < 3; pass++ {
			for _, a := range addrs {
				if !c.Access(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyCoherence(t *testing.T) {
	h := NewHierarchy(DesktopHierarchy(2), 2)
	// Core 0 reads, core 1 writes the same line: core 0's copy invalidated.
	h.AccessData(0, 0x1000, false)
	h.AccessData(1, 0x1000, true)
	if h.Invalidations != 1 {
		t.Errorf("invalidations = %d", h.Invalidations)
	}
	// Core 0's next access misses L1 again.
	if h.L1DFor(0).Lookup(0x1000) {
		t.Error("core 0 copy not invalidated")
	}
	if h.FootprintBytes() != 64 {
		t.Errorf("footprint = %d", h.FootprintBytes())
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := NewHierarchy(DesktopHierarchy(1), 1)
	lat1 := h.AccessData(0, 0x5000, false) // cold: memory
	lat2 := h.AccessData(0, 0x5000, false) // warm: L1
	if lat1 != 200 || lat2 != 4 {
		t.Errorf("latencies %d, %d", lat1, lat2)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(12)
	// A loop branch taken 99 times then not taken: predictor should be
	// nearly perfect after warm-up.
	for i := 0; i < 1000; i++ {
		bp.Predict(0x400100, i%100 != 99)
	}
	if r := bp.MispredictRate(); r > 0.06 {
		t.Errorf("loop mispredict rate = %v", r)
	}
	// Random branches: rate should be high.
	bp2 := NewBranchPredictor(12)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		bp2.Predict(0x400200, rng.Intn(2) == 0)
	}
	if r := bp2.MispredictRate(); r < 0.3 {
		t.Errorf("random mispredict rate = %v", r)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 30)
	if tlb.Access(0x1000) != 30 {
		t.Error("cold access has no walk")
	}
	if tlb.Access(0x1500) != 0 {
		t.Error("same page walked twice")
	}
	// Fill beyond capacity: LRU eviction.
	for p := uint64(2); p < 7; p++ {
		tlb.Access(p << 12)
	}
	if tlb.Access(0x1000) == 0 {
		t.Error("evicted page still hit")
	}
}

// loadProgram assembles a program into a fresh machine.
func loadProgram(t *testing.T, src string) *vm.Machine {
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
	m.MaxInstructions = 5_000_000
	return m
}

// runDriver runs m to completion under drv and finishes it.
func runDriver[C Core](t *testing.T, m *vm.Machine, drv *Driver[C]) {
	t.Helper()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	drv.Finish()
}

// runOneCore runs a program on one core of cfg, attached through the
// driver, and returns the finished core, its hierarchy and the machine.
func runOneCore[C Core](t *testing.T, src string, newCore func(CoreCfg, *Hierarchy, int) C, cfg CoreCfg) (C, *Hierarchy, *vm.Machine) {
	t.Helper()
	m := loadProgram(t, src)
	drv := Attach(m, newCore, cfg, DesktopHierarchy(1), 1, 0)
	runDriver(t, m, drv)
	return drv.Cores[0], drv.Hier, m
}

const streamProg = `
	.text
	.global _start
_start:
	limm r1, buf
	movi r2, 0
loop:
	ld.q r3, [r1]
	add  r4, r4, r3
	addi r1, r1, 64
	addi r2, r2, 1
	cmpi r2, 20000
	jnz  loop
	movi r0, 231
	syscall
	.bss
buf:	.space 2097152
`

const chaseLat = `
	.text
	.global _start
_start:
	movi r2, 0
	movi r1, 7
	movi r6, 1
loop:
	muli r1, r1, 1103515245
	addi r1, r1, 12345
	udiv r1, r1, r6     # serialize through the 20-cycle divider
	ori  r1, r1, 1
	addi r2, r2, 1
	cmpi r2, 20000
	jnz  loop
	movi r0, 231
	syscall
`

func TestIntervalCoreCPI(t *testing.T) {
	core, h, m := runOneCore(t, streamProg, NewIntervalCore, GainestownCore())
	if core.Stats.Instructions != m.GlobalRetired {
		t.Errorf("instr %d != %d", core.Stats.Instructions, m.GlobalRetired)
	}
	cpi := core.Stats.CPI()
	// Streaming misses every line: CPI must be well above the 0.25 ideal.
	if cpi < 0.4 || cpi > 100 {
		t.Errorf("stream CPI = %v", cpi)
	}
	if h.L1DFor(0).MissRate() < 0.5 {
		t.Errorf("stream L1D miss rate = %v", h.L1DFor(0).MissRate())
	}
}

func TestOOOCoreDependencyChain(t *testing.T) {
	// chaseLat is a serial dependency chain with divisions: the OOO core
	// must be bound by latency, not width.
	core, _, _ := runOneCore(t, chaseLat, NewOOOCore, GainestownCore())
	cpi := core.Stats.CPI()
	if cpi < 1.0 {
		t.Errorf("dependent-chain CPI = %v, expected latency-bound > 1", cpi)
	}

	// An independent-add stream must get CPI well under 1.
	core2, _, _ := runOneCore(t, `
	.text
	.global _start
_start:
	movi r9, 0
loop:
	addi r1, r9, 1
	addi r2, r9, 2
	addi r3, r9, 3
	addi r4, r9, 4
	addi r5, r9, 5
	addi r6, r9, 6
	addi r9, r9, 1
	cmpi r9, 20000
	jnz  loop
	movi r0, 231
	syscall
	`, NewOOOCore, GainestownCore())
	if ipc := core2.Stats.IPC(); ipc < 1.5 {
		t.Errorf("independent stream IPC = %v, expected superscalar > 1.5", ipc)
	}
	if core2.Stats.CPI() >= cpi {
		t.Errorf("independent CPI %v not better than dependent %v", core2.Stats.CPI(), cpi)
	}
}

func TestHaswellBeatsNehalem(t *testing.T) {
	// The bigger configuration must be at least as fast on an ILP-rich
	// workload (Table V direction).
	prog := `
	.text
	.global _start
_start:
	movi r9, 0
	limm r10, data
loop:
	ld.q r1, [r10]
	ld.q r2, [r10+8]
	ld.q r3, [r10+16]
	add  r4, r1, r2
	add  r5, r2, r3
	mul  r6, r1, r3
	add  r7, r4, r5
	addi r10, r10, 24
	andi r10, r10, 4095
	limm r11, data
	add  r10, r10, r11
	andi r10, r10, -8
	addi r9, r9, 1
	cmpi r9, 30000
	jnz  loop
	movi r0, 231
	syscall
	.data
	.align 4096
data:	.space 8192
	`
	run := func(cfg CoreCfg) float64 {
		core, _, _ := runOneCore(t, prog, NewOOOCore, cfg)
		return core.Stats.IPC()
	}
	nhm := run(NehalemCore())
	hsw := run(HaswellCore())
	if hsw < nhm {
		t.Errorf("haswell IPC %v < nehalem %v", hsw, nhm)
	}
}

// traceCore is a Core that keeps what it is fed: the instructions and
// their trace entries.
type traceCore struct {
	ins []isa.DecInst
	dyn []uint64
}

func (c *traceCore) Consume(in *isa.DecInst, dyn uint64) {
	c.ins = append(c.ins, *in)
	c.dyn = append(c.dyn, dyn)
}

func (c *traceCore) Finish() *CoreStats { return &CoreStats{Instructions: uint64(len(c.ins))} }

// TestFeederAssemblesTrace: on the chained core, a core is fed every
// retired instruction with its trace entry — a load's and a store's data
// address, a taken branch's outcome — through the generic feed that any
// Core type gets.
func TestFeederAssemblesTrace(t *testing.T) {
	m := loadProgram(t, `
	.text
	.global _start
_start:
	limm r1, v
	ld.q r2, [r1]
	st.q r2, [r1+8]
	cmpi r2, 0
	jz   skip
	nop
skip:
	movi r0, 231
	syscall
	.data
v:	.quad 0, 0
	`)
	drv := Attach(m, func(CoreCfg, *Hierarchy, int) *traceCore { return &traceCore{} },
		HardwareCore(), SmallHierarchy(1), 1, 0)
	runDriver(t, m, drv)
	c := drv.Cores[0]
	if len(c.ins) < 6 {
		t.Fatalf("fed %d instructions", len(c.ins))
	}
	v := c.ins[0].Imm
	if c.ins[1].Op != isa.LDQ || c.dyn[1] != v || v == 0 {
		t.Errorf("load: %+v, trace %#x, want address %#x", c.ins[1], c.dyn[1], v)
	}
	if c.ins[2].Op != isa.STQ || c.dyn[2] != v+8 {
		t.Errorf("store: %+v, trace %#x, want address %#x", c.ins[2], c.dyn[2], v+8)
	}
	if c.ins[4].Op != isa.JZ || c.dyn[4] != 1 {
		t.Errorf("branch: %+v, trace %d, want taken", c.ins[4], c.dyn[4])
	}
	// Machine-retired count matches the fed count.
	if uint64(len(c.ins)) != m.GlobalRetired {
		t.Errorf("fed %d, retired %d", len(c.ins), m.GlobalRetired)
	}
}

// TestDriverMarkerRule: the window opens only on SSCMARK or MAGIC carrying
// the start tag — the instructions core.Convert emits — and once closed it
// stays closed.
func TestDriverMarkerRule(t *testing.T) {
	const startTag = 7
	for _, tc := range []struct {
		marker string
		opens  bool
	}{
		{"sscmark 7", true},
		{"magic 7", true},
		{"cpuid r2, 7", false},
		{"sscmark 8", false},
		{"magic 8", false},
	} {
		m := loadProgram(t, `
	.text
	.global _start
_start:
	addi r1, r1, 1
	addi r1, r1, 1
	`+tc.marker+`
	addi r1, r1, 1
	movi r0, 231
	syscall
	`)
		drv := Attach(m, NewIntervalCore, HardwareCore(), SmallHierarchy(1), 1, startTag)
		runDriver(t, m, drv)
		// Opened, the window holds the marker and the three instructions
		// after it.
		want := uint64(0)
		if tc.opens {
			want = 4
		}
		if got := drv.Cores[0].Stats.Instructions; got != want || drv.Measuring() != tc.opens {
			t.Errorf("%s: measured %d instructions (measuring=%v), want %d", tc.marker, got, drv.Measuring(), want)
		}
	}

	// Closed before the run, the window stays shut through the start
	// marker (Run clears the stop request Close made).
	m := loadProgram(t, `
	.text
	.global _start
_start:
	sscmark 7
	addi r1, r1, 1
	movi r0, 231
	syscall
	`)
	drv := Attach(m, NewIntervalCore, HardwareCore(), SmallHierarchy(1), 1, startTag)
	drv.Close()
	runDriver(t, m, drv)
	if m.GlobalRetired != 4 {
		t.Fatalf("retired %d instructions, want the whole program's 4", m.GlobalRetired)
	}
	if got := drv.Cores[0].Stats.Instructions; got != 0 || drv.Measuring() || !drv.Closed() {
		t.Errorf("closed window reopened: measured %d, measuring=%v closed=%v", got, drv.Measuring(), drv.Closed())
	}
}

// TestDriverTimesRetiredOnly: the driver times each instruction once, when
// it retires. A load whose data page an OnFault tool maps on the first
// attempt is timed once, not once per attempt, and a load that dies on a
// fatal fault is not timed at all.
func TestDriverTimesRetiredOnly(t *testing.T) {
	const src = `
	.text
	.global _start
_start:
	limm r1, 0x70000000
	addi r2, r2, 1
	ld.q r3, [r1]
	addi r3, r3, 1
	movi r0, 231
	syscall
	`
	for _, recover := range []bool{true, false} {
		m := loadProgram(t, src)
		faults := 0
		pin.NewEngine(m).Attach(&pin.Tool{Name: "pager", OnFault: func(th *vm.Thread, f *mem.Fault) bool {
			faults++
			if recover {
				m.Proc.AS.Map(f.Addr&^(mem.PageSize-1), mem.PageSize, mem.ProtRW)
			}
			return recover
		}})
		drv := Attach(m, NewIntervalCore, HardwareCore(), SmallHierarchy(1), 1, 0)
		runDriver(t, m, drv)
		if faults != 1 || (m.FatalFault == nil) != recover {
			t.Fatalf("recover=%v: %d faults, fatal fault %v", recover, faults, m.FatalFault)
		}
		want := uint64(6)
		if !recover {
			want = 2
		}
		th := m.Threads[0]
		if got := drv.Cores[0].Stats.Instructions; th.Retired != want || got != th.Retired {
			t.Errorf("recover=%v: timed %d instructions, thread retired %d (want %d)", recover, got, th.Retired, want)
		}
	}
}

// TestDriverCloseStopsAtClosingInstruction: a window closed from After on
// a given PC stops the machine right after that instruction; the next one
// never executes.
func TestDriverCloseStopsAtClosingInstruction(t *testing.T) {
	m := loadProgram(t, `
	.text
	.global _start
_start:
	movi r9, 0
loop:
	addi r1, r1, 1
	addi r9, r9, 1
	cmpi r9, 10
	jnz  loop
	movi r0, 231
	syscall
	`)
	entry := m.Threads[0].Regs.PC
	closePC := entry + 2*isa.InstLen // the loop's second instruction
	drv := Attach(m, NewIntervalCore, HardwareCore(), SmallHierarchy(1), 1, 0)
	hits := 0
	drv.SetAfter(func(in *isa.DecInst) {
		if in.PC() == closePC {
			if hits++; hits == 3 {
				drv.Close()
			}
		}
	})
	runDriver(t, m, drv)
	// movi, then two loop trips of 4, then the third trip's first two.
	const pos = 1 + 2*4 + 2
	if m.GlobalRetired != pos {
		t.Errorf("machine retired %d instructions, want the closing instruction's position %d", m.GlobalRetired, pos)
	}
	if got := drv.Cores[0].Stats.Instructions; got != pos || !drv.Closed() {
		t.Errorf("timed %d instructions (closed=%v), want %d", got, drv.Closed(), pos)
	}
	if th := m.Threads[0]; th.Regs.PC != closePC+isa.InstLen || !th.Alive {
		t.Errorf("stopped at pc %#x (alive=%v), want %#x", th.Regs.PC, th.Alive, closePC+isa.InstLen)
	}
}
