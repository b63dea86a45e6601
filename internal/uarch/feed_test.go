package uarch_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/perfle"
	"elfie/internal/pin"
	"elfie/internal/uarch"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

// This file checks the driver's block feed against the per-instruction
// feed it replaced. hookedDriver is a copy of the driver as an OnIns
// pintool, timing each retired instruction from the step path's record,
// and hookedPerfle is a copy of perfle's per-instruction bookkeeping on
// top of it. Over generated and corpus programs — several threads,
// self-modifying code, inline and declined system calls, faults an
// OnFault tool retries — the block-fed driver must leave every core,
// cache, TLB and predictor count, and every perfle report, exactly as the
// copies do.

// hookedDriver is the uarch driver fed per instruction through OnIns.
type hookedDriver[C uarch.Core] struct {
	cores     []C
	hier      *uarch.Hierarchy
	measuring bool
	// after runs after each windowed instruction is timed.
	after func(tid int)
}

func attachHooked[C uarch.Core](m *vm.Machine, newCore func(uarch.CoreCfg, *uarch.Hierarchy, int) C,
	cfg uarch.CoreCfg, hcfg uarch.HierarchyCfg, n int, startTag uint32) *hookedDriver[C] {
	d := &hookedDriver[C]{hier: uarch.NewHierarchy(hcfg, n), measuring: startTag == 0}
	for i := 0; i < n; i++ {
		d.cores = append(d.cores, newCore(cfg, d.hier, i))
	}
	pin.NewEngine(m).Attach(&pin.Tool{Name: "uarch-hooked", OnIns: func(t *vm.Thread, r *vm.InsRecord) {
		if !d.measuring {
			if uint32(r.Ins.Imm) != startTag || r.Ins.Op != isa.SSCMARK && r.Ins.Op != isa.MAGIC {
				return
			}
			d.measuring = true
		}
		in := r.Ins.Predecode(r.PC)
		dyn := r.MemAddr
		if isa.IsCondBranch(r.Ins.Op) && r.Taken {
			dyn = 1
		}
		d.cores[t.TID%n].Consume([]isa.DecInst{in}, []uint64{dyn})
		if d.after != nil {
			d.after(t.TID)
		}
	}})
	return d
}

// hookedPerfle is perfle's Measurer with its bookkeeping done per
// instruction, after each windowed instruction is timed.
type hookedPerfle struct {
	opts       perfle.Options
	drv        *hookedDriver[*uarch.IntervalCore]
	report     perfle.Report
	sliceStart uint64
	sliceCyc   uint64
	t0Instr    uint64
	due        uint64
	winOpen    bool
	winInstr   uint64
	winCycles  uint64
}

func attachHookedPerfle(m *vm.Machine, opts perfle.Options) *hookedPerfle {
	p := &hookedPerfle{opts: opts}
	p.drv = attachHooked(m, uarch.NewIntervalCore, uarch.HardwareCore(),
		uarch.SmallHierarchy(opts.Cores), opts.Cores, opts.StartMarker)
	p.winOpen = opts.SkipInstr == 0
	p.setDue()
	p.drv.after = func(tid int) {
		if tid == 0 {
			if p.t0Instr++; p.t0Instr >= p.due {
				p.event()
			}
		}
	}
	return p
}

func (p *hookedPerfle) event() {
	cyc := p.drv.cores[0].Stats.Cycles
	if !p.winOpen && p.t0Instr >= p.opts.SkipInstr {
		p.winOpen = true
		p.winInstr = p.t0Instr
		p.winCycles = cyc
	}
	if p.opts.SliceSize > 0 && p.t0Instr-p.sliceStart >= p.opts.SliceSize {
		p.report.Slices = append(p.report.Slices, perfle.Slice{
			StartInstr:   p.sliceStart,
			Instructions: p.t0Instr - p.sliceStart,
			Cycles:       cyc - p.sliceCyc,
		})
		p.sliceStart = p.t0Instr
		p.sliceCyc = cyc
	}
	p.setDue()
}

func (p *hookedPerfle) setDue() {
	p.due = math.MaxUint64
	if !p.winOpen {
		p.due = p.opts.SkipInstr
	}
	if p.opts.SliceSize > 0 {
		p.due = min(p.due, p.sliceStart+p.opts.SliceSize)
	}
}

func (p *hookedPerfle) finish() *perfle.Report {
	r := &p.report
	for _, c := range p.drv.cores {
		st := *c.Finish()
		r.PerThread = append(r.PerThread, &st)
		r.Instructions += st.Instructions
		r.Cycles = max(r.Cycles, st.Cycles)
	}
	if p.winOpen {
		r.WindowInstructions = p.t0Instr - p.winInstr
		r.WindowCycles = p.drv.cores[0].Stats.Cycles - p.winCycles
	}
	if p.opts.NoiseSeed != 0 {
		rng := rand.New(rand.NewSource(p.opts.NoiseSeed))
		jitter := func(c uint64) uint64 {
			return uint64(float64(c) * (1 + (rng.Float64()*2-1)*0.01))
		}
		r.Cycles = jitter(r.Cycles)
		r.WindowCycles = jitter(r.WindowCycles)
	}
	r.MarkerSeen = p.opts.StartMarker != 0 && p.drv.measuring
	return r
}

// feedCounts is every count a set of cores and their hierarchy keep.
type feedCounts struct {
	Stats                     []uarch.CoreStats
	ITLB, DTLB, BP            [][2]uint64
	L1I, L1D, L2              [][2]uint64
	L3                        [2]uint64
	Invalidations, Prefetches uint64
	Footprint                 int
}

func countsOf[C uarch.Core](cores []C, h *uarch.Hierarchy) feedCounts {
	var f feedCounts
	for i, c := range cores {
		var st *uarch.CoreStats
		var itlb, dtlb *uarch.TLB
		var bp *uarch.BranchPredictor
		switch c := any(c).(type) {
		case *uarch.IntervalCore:
			st, itlb, dtlb, bp = &c.Stats, c.ITLB, c.DTLB, c.BP
		case *uarch.OOOCore:
			st, itlb, dtlb, bp = &c.Stats, c.ITLB, c.DTLB, c.BP
		}
		f.Stats = append(f.Stats, *st)
		f.ITLB = append(f.ITLB, [2]uint64{itlb.Accesses, itlb.Misses})
		f.DTLB = append(f.DTLB, [2]uint64{dtlb.Accesses, dtlb.Misses})
		f.BP = append(f.BP, [2]uint64{bp.Lookups, bp.Mispredict})
		for _, p := range []struct {
			dst *[][2]uint64
			c   *uarch.Cache
		}{{&f.L1I, h.L1IFor(i)}, {&f.L1D, h.L1DFor(i)}, {&f.L2, h.L2For(i)}} {
			*p.dst = append(*p.dst, [2]uint64{p.c.Accesses, p.c.Misses})
		}
	}
	f.L3 = [2]uint64{h.L3.Accesses, h.L3.Misses}
	f.Invalidations, f.Prefetches, f.Footprint = h.Invalidations, h.PrefetchIssued, h.FootprintLines()
	return f
}

// feedTag is the start tag of the marker withMarker puts into a program.
const feedTag = 0x7e1f

// withMarker returns r with a short counting loop and an SSCMARK feedTag
// put in front of its entry, so a measurement window opens mid-run.
func withMarker(r workloads.Recipe) workloads.Recipe {
	src := workloads.Generate(r)
	prologue := fmt.Sprintf("_start:\n\tmovi r12, 0\nfeedwarm:\n\taddi r12, r12, 1\n\tcmpi r12, 3000\n\tjnz feedwarm\n\tsscmark %d\n", feedTag)
	r.Asm = strings.Replace(src, "_start:\n", prologue, 1)
	r.Name += "+marker"
	return r
}

// feedInput is one program the feeds are compared on.
type feedInput struct {
	r     workloads.Recipe
	tag   uint32 // start marker, 0 for none
	pager bool   // unmap the writable pages and let an OnFault tool map them back
}

// attachPager unmaps every writable data page of m and attaches a tool
// whose OnFault maps a page back, with its contents, on its first touch,
// and retries the instruction. It returns the count of retried faults.
func attachPager(m *vm.Machine) *int {
	as := m.Proc.AS
	saved := map[uint64][]byte{}
	for _, r := range as.Regions() {
		if r.Prot&mem.ProtExec != 0 || r.Prot&mem.ProtWrite == 0 {
			continue
		}
		for a := r.Addr; a < r.Addr+r.Size; a += mem.PageSize {
			saved[a] = as.PageData(a)
		}
		as.Unmap(r.Addr, r.Size)
	}
	faults := new(int)
	pin.NewEngine(m).Attach(&pin.Tool{Name: "pager", OnFault: func(_ *vm.Thread, f *mem.Fault) bool {
		base := f.Addr &^ (mem.PageSize - 1)
		data, ok := saved[base]
		if !ok {
			return false
		}
		delete(saved, base)
		as.Map(base, mem.PageSize, mem.ProtRW)
		if err := as.Write(base, data); err != nil {
			return false
		}
		*faults++
		return true
	}})
	return faults
}

// TestBlockFeedMatchesHookedFeed: the driver's block feed — OnBlock runs
// plus the VM's trace, on the chained core — times exactly what the
// per-instruction OnIns feed timed, on 1, 3 and 8 cores of both core
// types, and perfle's reports (with a start marker, a warm-up skip and
// slices) are identical.
func TestBlockFeedMatchesHookedFeed(t *testing.T) {
	var inputs []feedInput
	for _, seed := range workloads.FuzzSeeds() {
		r := workloads.Fuzz(seed)
		if seed%2 == 0 {
			r.Threads = 3
		}
		inputs = append(inputs, feedInput{r: withMarker(r), tag: feedTag, pager: seed <= 2})
	}
	for _, name := range []string{"smc.flip", "sys.dense", "ctn.lock"} {
		e, ok := workloads.CorpusByName(name)
		if !ok {
			t.Fatalf("%s corpus entry missing", name)
		}
		inputs = append(inputs, feedInput{r: e.Recipe})
	}
	const limit = 120_000
	for _, in := range inputs {
		exe, err := workloads.Build(in.r)
		if err != nil {
			t.Fatal(err)
		}
		// load returns a fresh machine, and the pager's fault count.
		load := func() (*vm.Machine, *int) {
			m, err := vm.NewLoaded(kernel.New(kernel.NewFS(), 1), exe, []string{in.r.Name}, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.MaxInstructions = limit
			if in.r.Threads > 1 {
				// A short jittered quantum cuts runs at arbitrary points.
				m.Sched = vm.NewRoundRobin(37, 20, 5)
			}
			faults := new(int)
			if in.pager {
				faults = attachPager(m)
			}
			return m, faults
		}
		run := func(name string, m *vm.Machine, faults *int) {
			t.Helper()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if in.pager && *faults == 0 {
				t.Errorf("%s/%s: the pager retried no fault", in.r.Name, name)
			}
		}
		for _, n := range []int{1, 3, 8} {
			for _, kind := range []string{"interval", "ooo"} {
				name := fmt.Sprintf("%s/%d", kind, n)
				mb, fb := load()
				mh, fh := load()
				var got, want feedCounts
				if kind == "interval" {
					db := uarch.Attach(mb, uarch.NewIntervalCore, uarch.HardwareCore(), uarch.SmallHierarchy(n), n, in.tag)
					dh := attachHooked(mh, uarch.NewIntervalCore, uarch.HardwareCore(), uarch.SmallHierarchy(n), n, in.tag)
					run(name, mb, fb)
					run(name, mh, fh)
					db.Finish()
					for _, c := range dh.cores {
						c.Finish()
					}
					got, want = countsOf(db.Cores, db.Hier), countsOf(dh.cores, dh.hier)
				} else {
					db := uarch.Attach(mb, uarch.NewOOOCore, uarch.SkylakeCore(), uarch.DesktopHierarchy(n), n, in.tag)
					dh := attachHooked(mh, uarch.NewOOOCore, uarch.SkylakeCore(), uarch.DesktopHierarchy(n), n, in.tag)
					run(name, mb, fb)
					run(name, mh, fh)
					db.Finish()
					for _, c := range dh.cores {
						c.Finish()
					}
					got, want = countsOf(db.Cores, db.Hier), countsOf(dh.cores, dh.hier)
				}
				if mb.GlobalRetired != mh.GlobalRetired {
					t.Errorf("%s/%s: block feed retired %d, per-instruction feed %d", in.r.Name, name, mb.GlobalRetired, mh.GlobalRetired)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: counts differ\nblock %+v\nhooked %+v", in.r.Name, name, got, want)
				}
				if got.Stats[0].Instructions == 0 {
					t.Errorf("%s/%s: nothing was timed", in.r.Name, name)
				}
			}
			opts := perfle.Options{Cores: n, StartMarker: in.tag, SliceSize: 10_000, SkipInstr: 25_000}
			mb, fb := load()
			mh, fh := load()
			ms := perfle.Attach(mb, opts)
			hp := attachHookedPerfle(mh, opts)
			run("perfle", mb, fb)
			run("perfle", mh, fh)
			got, want := ms.Finish(), hp.finish()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/perfle-%d: reports differ\nblock %+v\nhooked %+v", in.r.Name, n, got, want)
			}
			if len(got.Slices) == 0 || got.WindowInstructions == 0 || in.tag != 0 && !got.MarkerSeen {
				t.Errorf("%s/perfle-%d: report too thin: %d slices, window %d, marker %v",
					in.r.Name, n, len(got.Slices), got.WindowInstructions, got.MarkerSeen)
			}
		}
	}
}
