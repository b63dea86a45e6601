package pinpoints

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"elfie/internal/coresim"
	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/perfle"
	"elfie/internal/pinball"
	"elfie/internal/workloads"
)

// pipelineDefaults is the pipeline benchmark's configuration at seed 1:
// cmd/pinpoints' defaults with two jobs.
func pipelineDefaults() Config {
	return Config{Seed: 1, UseSysState: true, Jobs: 2}
}

// onceBench is a benchmark prepared once at pipelineDefaults and shared by
// the tests in this file.
type onceBench struct {
	sync.Once
	b   *Benchmark
	err error
}

var cam4Once, gccOnce onceBench

func (o *onceBench) get(t *testing.T, name string) *Benchmark {
	t.Helper()
	o.Do(func() {
		r, ok := workloads.ByName(name)
		if !ok {
			o.err = fmt.Errorf("%s recipe missing", name)
			return
		}
		o.b, o.err = Prepare(r, pipelineDefaults())
	})
	if o.err != nil {
		t.Fatal(o.err)
	}
	if len(o.b.Regions) == 0 {
		t.Fatalf("%s prepared no regions", name)
	}
	return o.b
}

// cam4Benchmark prepares 627.cam4_s.1 (8 threads) once.
func cam4Benchmark(t *testing.T) *Benchmark { return cam4Once.get(t, "627.cam4_s.1") }

// gccBenchmark prepares 602.gcc_t once.
func gccBenchmark(t *testing.T) *Benchmark { return gccOnce.get(t, "602.gcc_t") }

// TestRegionELFieRunsAsItsFile: a region's ELFie runs the same from the
// File the region holds as from that File serialized and parsed back —
// the same pages and protections, registers and image regions at load,
// and the same measured window CPI — on the 8-thread cam4 stand-in and on
// gcc, whose final slice ends on the program's own exit.
func TestRegionELFieRunsAsItsFile(t *testing.T) {
	for _, b := range []*Benchmark{cam4Benchmark(t), gccBenchmark(t)} {
		for _, reg := range b.Regions {
			bin, err := reg.ELFie.Write()
			if err != nil {
				t.Fatal(err)
			}
			parsed := *reg
			if parsed.ELFie, err = elfobj.Read(bin); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s slice %d", b.Recipe.Name, reg.SliceUsed)
			if got, want := loadedState(t, b, reg), loadedState(t, b, &parsed); got != want {
				t.Errorf("%s loads differently from its File:\n got  %s\n want %s", name, got, want)
			}
			got, gotErr := b.measureRegion(reg, 1)
			want, wantErr := b.measureRegion(&parsed, 1)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s window CPI %v (%v) from its File, %v (%v) parsed back",
					name, got, gotErr, want, wantErr)
			}
		}
	}
}

// loadedState digests a region ELFie's freshly loaded session at seed 1:
// every mapped page with its protection, every thread's registers, and the
// process's image regions.
func loadedState(t *testing.T, b *Benchmark, reg *Region) string {
	t.Helper()
	s, err := b.ELFieSession(reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Machine
	h := sha256.New()
	for _, r := range m.Proc.AS.Regions() {
		fmt.Fprintf(h, "%x+%x/%d;", r.Addr, r.Size, r.Prot)
		for a := r.Addr; a < r.Addr+r.Size; a += mem.PageSize {
			h.Write(m.Proc.AS.PageData(a))
		}
	}
	for _, th := range m.Threads {
		fmt.Fprintf(h, "%+v;", th.Regs)
	}
	return fmt.Sprintf("%x image=%+v", h.Sum(nil)[:8], m.Proc.ImageRegions)
}

// TestMTRegionELFieEndsWithItsRegion checks that a multi-threaded region
// ELFie stops where its region ends: thread 0's counter ends the process,
// so no thread spins on until the machine's budget. Every region ELFie
// must retire at most 1.25x its logged length plus its startup tail, under
// the hardware model and under CoreSim alike.
func TestMTRegionELFieEndsWithItsRegion(t *testing.T) {
	b := cam4Benchmark(t)
	for _, reg := range b.Regions {
		if n := len(reg.Pinball.Meta.RegionLength); n < 2 {
			t.Fatalf("slice %d logged %d threads; want a multi-threaded region", reg.SliceUsed, n)
		}
		limit := reg.Pinball.Meta.TotalInstructions*5/4 + reg.TailInstr

		s, err := b.ELFieSession(reg, 1)
		if err != nil {
			t.Fatal(err)
		}
		perfle.Attach(s.Machine, perfle.Options{Cores: 1, StartMarker: b.cfg.MarkerTag})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !Completed(s.Machine) {
			t.Errorf("slice %d under perfle: not completed (%d threads alive)", reg.SliceUsed, s.Machine.AliveCount())
		}
		if got := s.Machine.GlobalRetired; got > limit {
			t.Errorf("slice %d under perfle retired %d, over %d (logged %d)",
				reg.SliceUsed, got, limit, reg.Pinball.Meta.TotalInstructions)
		}

		if _, err := b.simRegion(reg, coresim.Skylake1(coresim.FrontendSDE)); err != nil {
			t.Errorf("slice %d under CoreSim: %v", reg.SliceUsed, err)
		}
		if s, err = b.ELFieSession(reg, b.cfg.Seed); err != nil {
			t.Fatal(err)
		}
		simCfg := coresim.Skylake1(coresim.FrontendSDE)
		simCfg.StartMarker = b.cfg.MarkerTag
		coresim.Attach(s.Machine, simCfg)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := s.Machine.GlobalRetired; got > limit {
			t.Errorf("slice %d under CoreSim retired %d, over %d (logged %d)",
				reg.SliceUsed, got, limit, reg.Pinball.Meta.TotalInstructions)
		}
	}
}

// TestBudgetStopIsNotCompleted clears the process-exit flag on thread 0's
// counter of a cam4 region ELFie: thread 0 still reaches its period, but
// the other threads spin on until the budget stops the machine. Such a run
// did not end where its region ends and must never count as completed.
// The patch goes into a clone: the region's ELFie is shared with the other
// tests in this file.
func TestBudgetStopIsNotCompleted(t *testing.T) {
	b := cam4Benchmark(t)
	reg := b.Regions[0]
	cfg := b.elfieConfig(reg, 1)
	exe, err := elflint.CloneExe(cfg.Exe)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exe = exe
	sym, ok := cfg.Exe.Symbol("__elfie_t0_perfattr")
	if !ok {
		t.Fatal("ELFie has no __elfie_t0_perfattr")
	}
	// The loader maps segment images, so patch the flags word there.
	seg := cfg.Exe.SegmentAt(sym.Value + 16)
	if seg == nil || sym.Value+24-seg.Vaddr > uint64(len(seg.Data)) {
		t.Fatal("perf attribute flags not in a loaded segment's data")
	}
	flags := seg.Data[sym.Value+16-seg.Vaddr:][:8]
	if got := binary.LittleEndian.Uint64(flags); got != kernel.PerfExitOnOverflow|kernel.PerfExitGroupOnOverflow {
		t.Fatalf("thread 0 perf flags %#x, want exit-group on overflow", got)
	}
	binary.LittleEndian.PutUint64(flags, kernel.PerfExitOnOverflow)
	cfg.Budget = 2 * reg.Pinball.Meta.TotalInstructions

	s, err := harness.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	m := s.Machine
	if pcs := m.Threads[0].PerfCounters(); len(pcs) != 1 || !pcs[0].Fired {
		t.Fatal("thread 0's counter did not fire")
	}
	if m.GlobalRetired != cfg.Budget || m.AliveCount() == 0 {
		t.Fatalf("want a budget stop: retired %d of %d, %d threads alive",
			m.GlobalRetired, cfg.Budget, m.AliveCount())
	}
	if Completed(m) {
		t.Error("a budget-stopped run counts as completed")
	}
}

// TestMTCheckpointResumeEndsAtSameCount checkpoints a cam4 region ELFie
// mid-region, round-trips the checkpoint through its file set and resumes
// it: thread 0's restored counter must still end the whole process, at the
// same global retired count as an uninterrupted run.
func TestMTCheckpointResumeEndsAtSameCount(t *testing.T) {
	b := cam4Benchmark(t)
	reg := b.Regions[0]
	for _, r := range b.Regions {
		if r.Pinball.Meta.TotalInstructions > reg.Pinball.Meta.TotalInstructions {
			reg = r
		}
	}
	const seed = 3
	ref, err := b.ELFieSession(reg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !Completed(ref.Machine) {
		t.Fatal("uninterrupted run not completed")
	}
	want := ref.Machine.GlobalRetired

	s, err := b.ELFieSession(reg, seed)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt *pinball.Pinball
	err = s.RunCheckpointed(harness.CkptOptions{
		Every: want / 2,
		Name:  "cam4.ckpt",
		Save: func(p *pinball.Pinball) error {
			if ckpt == nil {
				ckpt = p
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil {
		t.Fatal("no mid-region checkpoint taken")
	}
	at := ckpt.Meta.Checkpoint.GlobalRetired
	if perf := ckpt.Meta.Checkpoint.Threads[0].Perf; len(perf) != 1 || !perf[0].ExitGroup || perf[0].Fired {
		t.Fatalf("checkpoint at %d: thread 0 perf state %+v, want one armed exit-group counter", at, perf)
	}

	files, err := ckpt.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := pinball.ReadFileSet(ckpt.Name, files, pinball.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := harness.New(harness.Config{Mode: harness.ModeNative, Pinball: loaded, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if !Completed(resumed.Machine) {
		t.Fatalf("resumed run not completed (%d threads alive)", resumed.Machine.AliveCount())
	}
	if got := at + resumed.Machine.GlobalRetired; got != want {
		t.Errorf("checkpoint at %d + resumed %d = %d, uninterrupted %d",
			at, resumed.Machine.GlobalRetired, got, want)
	}
}

// TestFinalSliceCompleted runs the ELFie of 602.gcc_t's final slice, which
// is shorter than SliceSize: the program's own exit_group ends it exactly
// at its counter's period, before the overflow check runs. That is a clean
// end of the region, so it is completed and measured directly, with no
// alternate.
func TestFinalSliceCompleted(t *testing.T) {
	b := gccBenchmark(t)
	last := len(b.Profile.Slices) - 1
	var reg *Region
	for _, rg := range b.Regions {
		if rg.SliceUsed == last {
			reg = rg
		}
	}
	if reg == nil {
		t.Fatalf("seed 1 selects no region at final slice %d", last)
	}
	if reg.Pinball.Meta.TotalInstructions >= reg.Warmup+b.cfg.SliceSize {
		t.Fatalf("final slice %d logged %d instructions; want a partial slice", last, reg.Pinball.Meta.TotalInstructions)
	}

	rc, ev := b.measureWithFallback(reg, func(rg *Region) (float64, error) { return b.measureRegion(rg, 1) })
	if ev != nil {
		t.Fatalf("final slice %d: %v (%s)", last, ev.Err, ev.Action)
	}
	if !rc.OK || rc.UsedAlternate != -1 || rc.SliceUsed != last || rc.CPI <= 0 {
		t.Fatalf("final slice %d measured as %+v", last, rc)
	}
	s, err := b.ELFieSession(reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	perfle.Attach(s.Machine, perfle.Options{
		Cores:       1,
		StartMarker: b.cfg.MarkerTag,
		SkipInstr:   reg.TailInstr + reg.Warmup,
		NoiseSeed:   1 + int64(reg.SliceUsed),
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	m := s.Machine
	if !Completed(m) {
		t.Fatal("final slice run not completed")
	}
	p := m.Threads[0].PerfCounters()[0]
	if p.Fired || p.Count(m.Threads[0]) != p.Period {
		t.Errorf("want the program's exit at the period: fired=%v count=%d period=%d",
			p.Fired, p.Count(m.Threads[0]), p.Period)
	}
}
