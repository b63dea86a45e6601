package elfie_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"elfie/internal/bbv"
	"elfie/internal/coresim"
	"elfie/internal/gem5sim"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/perfle"
	"elfie/internal/pin"
	"elfie/internal/sniper"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

// guardMachine builds the reference workload used by the execution-path
// guard tests: phased and branchy, trimmed so the guard stays fast.
func guardMachine(t *testing.T, seed int64) *vm.Machine {
	t.Helper()
	return recipeLoader(t, trim(workloads.TrainIntRate()[1], 3), seed)()
}

// recipeLoader builds recipe r once and returns a constructor for fresh
// machines loaded with it.
func recipeLoader(t testing.TB, r workloads.Recipe, seed int64) func() *vm.Machine {
	t.Helper()
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	return func() *vm.Machine {
		fs := kernel.NewFS()
		if r.FileInput {
			fs.WriteFile("/input.dat", workloads.InputFile())
		}
		m, err := vm.NewLoaded(kernel.New(fs, seed), exe, []string{r.Name}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.MaxInstructions = 50_000_000
		return m
	}
}

// marshalProfile renders a BBV profile into a canonical byte string:
// slice count, then per slice the sorted (block, weight) pairs.
func marshalProfile(p *bbv.Profile) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(p.Slices)))
	out = binary.LittleEndian.AppendUint64(out, p.TotalInstructions)
	for _, v := range p.Slices {
		keys := make([]uint64, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out = binary.LittleEndian.AppendUint64(out, uint64(len(keys)))
		for _, k := range keys {
			out = binary.LittleEndian.AppendUint64(out, k)
			out = binary.LittleEndian.AppendUint32(out, v[k])
		}
	}
	return out
}

type runSummary struct {
	retired uint64
	t0      uint64
	exit    int
	stdout  string
	halted  bool
}

func summarize(m *vm.Machine) runSummary {
	return runSummary{
		retired: m.GlobalRetired,
		t0:      m.Threads[0].Retired,
		exit:    m.ExitStatus,
		stdout:  string(m.Stdout()),
		halted:  m.Halted,
	}
}

// TestHookedMatchesFastPath is the execution-path guard: the hooked
// per-instruction interpreter (an instruction counter and BBV profiling
// attached) and the unhooked decoded-block fast path must retire the
// identical architectural instruction stream — same counts, exit, output,
// and final registers — and BBV profiling itself must be byte-for-byte
// the same on either path.
func TestHookedMatchesFastPath(t *testing.T) {
	// Hooked run A: the instruction counter forces the per-instruction path.
	ma := guardMachine(t, 1)
	pin.NewEngine(ma).Attach(&pin.NewICounter().Tool)
	pa, err := bbv.Collect(ma, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Slices) < 2 {
		t.Fatalf("reference workload too small: %d slices", len(pa.Slices))
	}

	// Run B: BBV profiling alone stays on the chained core, and must
	// produce the identical profile.
	mb := guardMachine(t, 1)
	pb, err := bbv.Collect(mb, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalProfile(pa), marshalProfile(pb)) {
		t.Error("BBV profiles differ between the hooked path and the chained core")
	}

	// Unhooked run C: decoded-block fast path.
	mc := guardMachine(t, 1)
	if err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	// Unhooked run D: per-instruction path without hooks (cache disabled).
	md := guardMachine(t, 1)
	md.DisableBlockCache = true
	if err := md.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sc, sd := summarize(ma), summarize(mc), summarize(md)
	if sa != sc {
		t.Errorf("hooked vs block fast path diverge:\nhooked %+v\nfast   %+v", sa, sc)
	}
	if sc != sd {
		t.Errorf("block fast path vs plain interpreter diverge:\nfast %+v\nslow %+v", sc, sd)
	}
	if ma.Threads[0].Regs.GPR != mc.Threads[0].Regs.GPR {
		t.Errorf("final registers diverge:\nhooked %v\nfast   %v",
			ma.Threads[0].Regs.GPR, mc.Threads[0].Regs.GPR)
	}
	// The profiled instruction total must equal what the fast path retired
	// on thread 0 — the BBV stream covers the whole execution.
	if pa.TotalInstructions != mc.Threads[0].Retired {
		t.Errorf("BBV total %d != fast-path thread-0 retired %d",
			pa.TotalInstructions, mc.Threads[0].Retired)
	}
}

// refCollector is the per-instruction BBV reference: an OnIns pintool that
// credits every retired thread-0 instruction to the block opened by the
// last branch. bbv.Collector must produce its profile exactly.
type refCollector struct {
	p          bbv.Profile
	cur        bbv.Vector
	n          uint64
	blockStart uint64
	prevBranch bool
}

func newRefCollector(size uint64) *refCollector {
	return &refCollector{p: bbv.Profile{SliceSize: size}, cur: bbv.Vector{}, prevBranch: true}
}

func (c *refCollector) observe(t *vm.Thread, r *vm.InsRecord) {
	if t.TID != 0 {
		return
	}
	if c.prevBranch {
		c.blockStart = r.PC
	}
	c.cur[c.blockStart]++
	c.prevBranch = isa.IsBranch(r.Ins.Op)
	c.n++
	c.p.TotalInstructions++
	if c.n >= c.p.SliceSize {
		c.flush()
	}
}

func (c *refCollector) flush() {
	if c.n > 0 {
		c.p.Slices = append(c.p.Slices, c.cur)
		c.cur, c.n = bbv.Vector{}, 0
	}
}

// TestBBVSameOnEveryEngine: the block-granular BBV profiler gives the
// per-instruction reference's profile byte for byte on every engine — the
// chained core, the plain interpreter, and the interpreter forced by a
// per-instruction tool — across single- and multi-threaded, self-modifying
// and generated programs. Slice sizes 1 and 7 split nearly every block;
// they run on a 100k-instruction prefix, since their profiles hold one
// vector per slice. The larger sizes run up to 1M instructions: the guard
// and 8-thread inputs whole, the others' first 1M.
func TestBBVSameOnEveryEngine(t *testing.T) {
	type input struct {
		name string
		r    workloads.Recipe
	}
	inputs := []input{
		{"guard", trim(workloads.TrainIntRate()[1], 3)},
	}
	if r, ok := workloads.ByName("627.cam4_s.1"); ok {
		inputs = append(inputs, input{"cam4-8t", trim(r, 2)})
	} else {
		t.Fatal("627.cam4_s.1 recipe missing")
	}
	if e, ok := workloads.CorpusByName("smc.flip"); ok {
		inputs = append(inputs, input{"smc.flip", e.Recipe})
	} else {
		t.Fatal("smc.flip corpus entry missing")
	}
	for _, seed := range workloads.FuzzSeeds() {
		r := workloads.Fuzz(seed)
		inputs = append(inputs, input{r.Name, r})
	}
	engines := []struct {
		name  string
		setup func(*vm.Machine)
	}{
		{"chained", func(*vm.Machine) {}},
		{"interp", func(m *vm.Machine) { m.DisableBlockCache = true }},
		{"hooked", func(m *vm.Machine) { pin.NewEngine(m).Attach(&pin.NewICounter().Tool) }},
	}
	groups := []struct {
		sizes []uint64
		limit uint64
	}{
		{[]uint64{1, 7}, 100_000},
		{[]uint64{1000, 100_000}, 1_000_000},
	}
	for _, in := range inputs {
		load := recipeLoader(t, in.r, 1)
		for _, g := range groups {
			newMachine := func() *vm.Machine {
				m := load()
				m.MaxInstructions = g.limit
				return m
			}
			ref := newMachine()
			want := make([][]byte, len(g.sizes))
			refs := make([]*refCollector, len(g.sizes))
			for i, size := range g.sizes {
				refs[i] = newRefCollector(size)
				pin.NewEngine(ref).Attach(&pin.Tool{Name: "bbv-ref", OnIns: refs[i].observe})
			}
			if err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			for i, c := range refs {
				c.flush()
				want[i] = marshalProfile(&c.p)
			}
			for _, e := range engines {
				m := newMachine()
				e.setup(m)
				cs := make([]*bbv.Collector, len(g.sizes))
				for i, size := range g.sizes {
					cs[i] = bbv.NewCollector(size)
					cs[i].Attach(m)
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if m.GlobalRetired != ref.GlobalRetired {
					t.Errorf("%s/%s: retired %d, reference %d", in.name, e.name, m.GlobalRetired, ref.GlobalRetired)
				}
				for i, c := range cs {
					if !bytes.Equal(marshalProfile(c.Finish()), want[i]) {
						t.Errorf("%s/%s slice %d: profile differs from the per-instruction reference",
							in.name, e.name, g.sizes[i])
					}
				}
			}
		}
	}
}

// timingGolden holds each timing model's result digest on each guard input
// (see timingDigest). The digests pin the uarch models themselves: a drift
// in the cache, TLB, predictor or core models that every engine shares
// would pass the cross-engine comparison but not these.
var timingGolden = map[string]string{
	"guard/perfle-1":          "bb55c5359f86199d",
	"guard/perfle-8":          "316616600ab1fe95",
	"guard/coresim-sde":       "9c61a03f941c0bcd",
	"guard/coresim-simics":    "253cbbb86bbaee59",
	"guard/sniper-8":          "bb304c340d412722",
	"guard/gem5-nehalem":      "cdce0127b7ddb810",
	"cam4-8t/perfle-1":        "17aa147fe9d6e223",
	"cam4-8t/perfle-8":        "6fdd501aabd08ced",
	"cam4-8t/coresim-sde":     "b2f626b13bc99fff",
	"cam4-8t/coresim-simics":  "619cf219bfd59d33",
	"cam4-8t/sniper-8":        "a5f936e7a77ec67a",
	"cam4-8t/gem5-nehalem":    "771817ba03369d07",
	"smc.flip/perfle-1":       "b639d7909b3bd23f",
	"smc.flip/perfle-8":       "c3b98344031ed106",
	"smc.flip/coresim-sde":    "3b05eae2b19bad2d",
	"smc.flip/coresim-simics": "efa63a3d921d9656",
	"smc.flip/sniper-8":       "1beeef06d8f5af5a",
	"smc.flip/gem5-nehalem":   "b0857716a8f80d46",
	"fz.0001/perfle-1":        "d55c853c98854005",
	"fz.0001/perfle-8":        "e5aec9d87d9207e8",
	"fz.0001/coresim-sde":     "893eeb1e7b88100a",
	"fz.0001/coresim-simics":  "659d979ff8a61ec4",
	"fz.0001/sniper-8":        "6c9e5ed8ae6c2555",
	"fz.0001/gem5-nehalem":    "df2e920c2f24adf3",
	"fz.0002/perfle-1":        "c87608f9aafe8865",
	"fz.0002/perfle-8":        "6e7173c268a334a2",
	"fz.0002/coresim-sde":     "12f7658042172bd7",
	"fz.0002/coresim-simics":  "a2a305ab35f75ef4",
	"fz.0002/sniper-8":        "04a168a762481026",
	"fz.0002/gem5-nehalem":    "345bee4398daa0ab",
	"fz.0003/perfle-1":        "23e48170d1388771",
	"fz.0003/perfle-8":        "a680150314a1aa67",
	"fz.0003/coresim-sde":     "f67a1b7e9d62c15b",
	"fz.0003/coresim-simics":  "6887438db01f3c2b",
	"fz.0003/sniper-8":        "3e41ec8d164aef60",
	"fz.0003/gem5-nehalem":    "e3ba12ecbcb74138",
	"fz.0004/perfle-1":        "cfafcb69c0b384a6",
	"fz.0004/perfle-8":        "5da7c1c8eb1a620c",
	"fz.0004/coresim-sde":     "c3159f999668c71a",
	"fz.0004/coresim-simics":  "ba2ab93d90ba4b40",
	"fz.0004/sniper-8":        "9c518c7aaebc2cb0",
	"fz.0004/gem5-nehalem":    "67abd7db62e5b629",
}

// timingDigest renders a timing result canonically and hashes it: every
// cycle count, per-thread stat, slice sample and rate the result holds.
func timingDigest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

// TestTimingSameOnEveryEngine: every timing model reads the program
// through the uarch driver, so its results depend only on the retired
// instruction stream. perfle's hardware model (1 and 8 cores), CoreSim (SDE
// and Simics front-ends), Sniper (8 Gainestown cores) and gem5 (Nehalem SE)
// must report identical results on the default engine — the chained core
// with its run trace, or for gem5, whose vector check may Close, the plain
// interpreter — and on the pure fetch/decode interpreter, across single- and multi-threaded, self-modifying and
// generated programs; and all must match the recorded golden digests.
func TestTimingSameOnEveryEngine(t *testing.T) {
	type input struct {
		name string
		r    workloads.Recipe
	}
	inputs := []input{
		{"guard", trim(workloads.TrainIntRate()[1], 3)},
	}
	if r, ok := workloads.ByName("627.cam4_s.1"); ok {
		inputs = append(inputs, input{"cam4-8t", trim(r, 2)})
	} else {
		t.Fatal("627.cam4_s.1 recipe missing")
	}
	if e, ok := workloads.CorpusByName("smc.flip"); ok {
		inputs = append(inputs, input{"smc.flip", e.Recipe})
	} else {
		t.Fatal("smc.flip corpus entry missing")
	}
	for _, seed := range workloads.FuzzSeeds() {
		r := workloads.Fuzz(seed)
		inputs = append(inputs, input{r.Name, r})
	}
	models := []struct {
		name string
		run  func(*vm.Machine) (any, error)
	}{
		{"perfle-1", func(m *vm.Machine) (any, error) {
			ms := perfle.Attach(m, perfle.Options{Cores: 1, SliceSize: 50_000})
			err := m.Run()
			return ms.Finish(), err
		}},
		{"perfle-8", func(m *vm.Machine) (any, error) {
			ms := perfle.Attach(m, perfle.Options{Cores: 8, SliceSize: 50_000})
			err := m.Run()
			return ms.Finish(), err
		}},
		{"coresim-sde", func(m *vm.Machine) (any, error) {
			s := coresim.Attach(m, coresim.Skylake1(coresim.FrontendSDE))
			err := m.Run()
			return s.Finish(), err
		}},
		{"coresim-simics", func(m *vm.Machine) (any, error) {
			s := coresim.Attach(m, coresim.Skylake1(coresim.FrontendSimics))
			err := m.Run()
			return s.Finish(), err
		}},
		{"sniper-8", func(m *vm.Machine) (any, error) {
			return sniper.SimulateMachine(m, sniper.Gainestown8(), sniper.EndCondition{})
		}},
		{"gem5-nehalem", func(m *vm.Machine) (any, error) {
			cfg := gem5sim.NehalemSE()
			cfg.AllowVector = true
			return gem5sim.SimulateMachine(m, cfg)
		}},
	}
	for _, in := range inputs {
		load := recipeLoader(t, in.r, 1)
		for _, model := range models {
			key := in.name + "/" + model.name
			var digests [2]string
			for i, interp := range []bool{false, true} {
				m := load()
				m.MaxInstructions = 500_000
				m.DisableBlockCache = interp
				res, err := model.run(m)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				digests[i] = timingDigest(t, res)
			}
			if digests[0] != digests[1] {
				t.Errorf("%s: default engine %s, interpreter %s", key, digests[0], digests[1])
			}
			if want := timingGolden[key]; digests[0] != want {
				t.Errorf("%s: digest %s, golden %q", key, digests[0], want)
			}
		}
	}
}
