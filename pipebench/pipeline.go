package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"elfie/internal/coresim"
	"elfie/internal/kernel"
	"elfie/internal/pinpoints"
	"elfie/internal/registry"
	"elfie/internal/store"
	"elfie/internal/workloads"
)

// workload is one named benchmark input: a recipe and how the pipeline is
// run on it. The README gives the reason each was chosen.
type workload struct {
	name   string
	recipe string
	// sim validates with CoreSim (ValidateSim) instead of native ELFie runs.
	sim bool
	// consume serves a produced store from an in-process registry and runs
	// the pipeline through a pull-through cache of it.
	consume bool
	// trials is the number of ValidateNative trials, seeded seed+101*t as
	// cmd/pinpoints seeds them.
	trials int
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps int
}

var allWorkloads = []workload{
	{name: "produce-mt", recipe: "627.cam4_s.1", sim: true, setupReps: 51},
	{name: "consume", recipe: "602.gcc_t", consume: true, trials: 3, setupReps: 3},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobs is the farm width: one worker per CPU of the two-CPU reference host.
const jobs = 2

// pipelineConfig is cmd/pinpoints' default configuration, with the values
// Prepare would default spelled out so the serial composition can use them.
func pipelineConfig(seed int64) pinpoints.Config {
	return pinpoints.Config{
		SliceSize: 200_000, WarmupSize: 800_000, MaxK: 50,
		MarkerTag: 0x1010, MachineBudget: 2_000_000_000,
		Seed: seed, UseSysState: true, Jobs: jobs,
	}
}

// tally counts operations: region builds, region measurements and
// correctness checks.
type tally struct{ attempted, failed int }

func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// fingerprint is what must repeat exactly across the iterations of one
// seed: the pipeline is deterministic, so any difference is a bug.
type fingerprint struct {
	PredErrPct  float64
	CoveragePct float64
	StoreBytes  int64
	K           int
	Regions     int
	LogInstr    uint64 // traced runs only
	ELFies      string // sorted ELFie SHA-256s
}

// iteration is one closed-loop pipeline job.
type iteration struct {
	prepare, validate time.Duration
	fp                fingerprint
	ops               tally
	failures          []string
	// recovered counts region measurements that succeeded only on an
	// alternate representative, after the primary ELFie failed.
	recovered int

	bm    *pinpoints.Benchmark
	vals  []*pinpoints.Validation
	st    *store.Store
	dedup float64 // the store's logical ÷ physical bytes
}

// check counts one correctness check; a failed one drops the iteration's
// samples (see runStats.add).
func (it *iteration) check(ok bool, format string, args ...any) {
	it.ops.op(ok)
	if !ok {
		msg := fmt.Sprintf(format, args...)
		it.failures = append(it.failures, msg)
		fmt.Fprintln(os.Stderr, "pipebench: check failed:", msg)
	}
}

// bench is one benchmark process: a workload at a seed, its scratch
// directory, and for consume the registry serving the produced store.
type bench struct {
	w      workload
	seed   int64
	recipe workloads.Recipe
	dir    string

	srv       *httptest.Server
	client    *registry.Client
	published string // sorted ELFie SHA-256s the registry serves
	entries   int

	first *fingerprint
}

func newBench(w workload, seed int64, parent string) (*bench, error) {
	r, ok := workloads.ByName(w.recipe)
	if !ok {
		return nil, fmt.Errorf("unknown recipe %q", w.recipe)
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, w.name+"-")
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, recipe: r, dir: dir}, nil
}

// close stops the registry server, waiting for its connections, and
// removes the scratch directory.
func (b *bench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	os.RemoveAll(b.dir)
}

// programFS is the guest filesystem the workload program runs with.
func (b *bench) programFS() *kernel.FS {
	fs := kernel.NewFS()
	if b.recipe.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	return fs
}

func (b *bench) openStore(prefix string) (*store.Store, error) {
	dir, err := os.MkdirTemp(b.dir, prefix)
	if err != nil {
		return nil, err
	}
	return store.Open(dir)
}

// buildBatch is how many builds one produce set-up sample times, returning
// their mean: one build takes about 0.3 ms, too short to time steadily
// alone.
const buildBatch = 10

// setupOnce builds the workload executable and, for consume, produces the
// artifacts once and publishes them to a fresh registry. It returns the
// set-up time and counts its own checks into ops.
func (b *bench) setupOnce(ops *tally) (time.Duration, error) {
	t0 := time.Now()
	if !b.w.consume {
		for i := 0; i < buildBatch; i++ {
			if _, err := workloads.Build(b.recipe); err != nil {
				return 0, fmt.Errorf("build %s: %w", b.recipe.Name, err)
			}
		}
		return time.Since(t0) / buildBatch, nil
	}
	if _, err := workloads.Build(b.recipe); err != nil {
		return 0, fmt.Errorf("build %s: %w", b.recipe.Name, err)
	}
	prod, err := b.openStore("produce-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(prod.Root())
	cfg := pipelineConfig(b.seed)
	cfg.Store = prod
	if _, err := pinpoints.Prepare(b.recipe, cfg); err != nil {
		return 0, fmt.Errorf("produce: %w", err)
	}
	reg, err := b.openStore("registry-")
	if err != nil {
		return 0, err
	}
	if b.srv != nil {
		b.srv.Close()
	}
	b.srv = httptest.NewServer(registry.NewServer(reg, registry.ServerOptions{}).Handler())
	b.client = &registry.Client{Base: b.srv.URL}
	entries := prod.Entries()
	for _, e := range entries {
		if _, err := b.client.Push(prod, e.Key); err != nil {
			return 0, fmt.Errorf("publish %s: %w", e.Key, err)
		}
	}
	d := time.Since(t0)

	set, err := regionHashes(prod)
	if err != nil {
		return 0, err
	}
	ok := b.published == "" || b.published == set
	ops.op(ok)
	if !ok {
		return 0, fmt.Errorf("set-up published a different ELFie set on repeat")
	}
	b.published, b.entries = set, len(entries)
	return d, nil
}

// iterate runs one closed-loop pipeline job: a fresh store, Prepare, then
// validation, then the correctness checks. With a tracer, Prepare and
// validation get spans under parent and the store is wrapped in the timing
// decorator, which is returned.
func (b *bench) iterate(tr *tracer, parent int) (*iteration, *timedCache, error) {
	st, err := b.openStore("store-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(st.Root())
	it := &iteration{st: st}
	var cache store.Cache = st
	var pt *registry.PullThrough
	if b.w.consume {
		pt = registry.NewPullThrough(st, b.client)
		cache = pt
	}
	var tc *timedCache
	prepID, valID := -1, -1
	if tr != nil {
		prepID = tr.begin("pinpoints.prepare", parent)
		tc = &timedCache{inner: cache, tr: tr, parent: prepID}
		cache = tc
	}
	cfg := pipelineConfig(b.seed)
	cfg.Store = cache

	t0 := time.Now()
	bm, err := pinpoints.Prepare(b.recipe, cfg)
	it.prepare = time.Since(t0)
	if tr != nil {
		tr.end(prepID)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	it.bm = bm
	// The ELFies Prepare stored or pulled. Read before validation, which
	// stores the alternates it builds for regions whose ELFie fails.
	if it.fp.ELFies, err = regionHashes(st); err != nil {
		return nil, nil, err
	}

	if tr != nil {
		valID = tr.begin("pinpoints.validate", parent)
		tc.setParent(valID)
	}
	t1 := time.Now()
	if b.w.sim {
		v, err := pinpoints.ValidateSim(bm, coresim.Skylake1(coresim.FrontendSDE))
		if err != nil {
			return nil, nil, fmt.Errorf("validate: %w", err)
		}
		it.vals = append(it.vals, v)
	} else {
		for t := 0; t < b.w.trials; t++ {
			v, err := pinpoints.ValidateNative(bm, b.seed+101*int64(t))
			if err != nil {
				return nil, nil, fmt.Errorf("validate trial %d: %w", t, err)
			}
			it.vals = append(it.vals, v)
		}
	}
	it.validate = time.Since(t1)
	if tr != nil {
		tr.end(valID)
	}

	if err := b.checkIteration(it, pt); err != nil {
		return nil, nil, err
	}
	return it, tc, nil
}

// checkIteration fills the iteration's fingerprint and operation counts
// and runs the correctness checks that need no trace.
func (b *bench) checkIteration(it *iteration, pt *registry.PullThrough) error {
	bm := it.bm
	// Region builds: a selected region that no attempt could build is
	// dropped from the benchmark.
	for i := range bm.Selection.Regions {
		it.ops.op(i < len(bm.Regions))
	}
	var errPct, cov float64
	for _, v := range it.vals {
		it.ops.op(v.TrueCPI > 0) // the whole-program measurement
		for _, rc := range v.PerRegion {
			it.ops.op(rc.OK)
			if rc.UsedAlternate >= 0 {
				it.recovered++
			}
		}
		errPct += math.Abs(v.Error) * 100
		cov += v.Coverage * 100
	}
	n := float64(len(it.vals))
	st, err := it.st.Stats()
	if err != nil {
		return err
	}
	it.dedup = st.DedupRatio
	it.check(bm.CacheErrors() == 0, "%d store operations failed inside Prepare", bm.CacheErrors())
	it.fp.PredErrPct, it.fp.CoveragePct, it.fp.StoreBytes = errPct/n, cov/n, st.Bytes
	it.fp.K, it.fp.Regions = bm.Selection.K, len(bm.Regions)

	if b.w.consume {
		it.check(it.fp.ELFies == b.published, "consume pulled a different ELFie set than set-up published")
		for _, stage := range []string{"log", "convert", "lint"} {
			ran := bm.JobStats.Stage(stage).Run
			it.check(ran == 0, "consume ran %d %s jobs, want 0", ran, stage)
		}
		it.check(pt.Fills() == int64(b.entries),
			"pull-through filled %d entries, registry holds %d", pt.Fills(), b.entries)
	} else {
		built, err := elfieHashes(bm)
		if err != nil {
			return err
		}
		it.check(it.fp.ELFies == built, "the store holds a different ELFie set than Prepare built")
	}
	return nil
}

// steady is the steadiness guard: every iteration of one seed must repeat
// the first one's fingerprint exactly.
func (b *bench) steady(it *iteration) {
	if b.first == nil {
		fp := it.fp
		b.first = &fp
		return
	}
	it.check(it.fp == *b.first, "not steady across iterations of seed %d: %+v, first %+v",
		b.seed, it.fp, *b.first)
}

// endToEnd returns the iteration's samples of the end-to-end metrics that
// are sampled per iteration.
func (it *iteration) endToEnd() map[string]float64 {
	return map[string]float64{
		"prepare_s":    it.prepare.Seconds(),
		"validate_s":   it.validate.Seconds(),
		"total_s":      (it.prepare + it.validate).Seconds(),
		"pred_err_pct": it.fp.PredErrPct,
		"coverage_pct": it.fp.CoveragePct,
		"store_mb":     float64(it.fp.StoreBytes) / 1e6,
	}
}

// regionHashes returns the sorted SHA-256s of the ELFies in a store's
// region entries.
func regionHashes(st *store.Store) (string, error) {
	var hs []string
	for _, e := range st.Entries() {
		if e.Kind != "region" {
			continue
		}
		files, _, ok, err := st.Get(e.Key)
		if err != nil || !ok {
			return "", fmt.Errorf("read back %s: ok=%v err=%v", e.Key, ok, err)
		}
		hs = append(hs, sha(files["elfie.bin"]))
	}
	return joinSorted(hs), nil
}

// elfieHashes returns the sorted SHA-256s of a prepared benchmark's ELFies.
func elfieHashes(bm *pinpoints.Benchmark) (string, error) {
	var hs []string
	for _, reg := range bm.Regions {
		bin, err := reg.ELFie.Write()
		if err != nil {
			return "", err
		}
		hs = append(hs, sha(bin))
	}
	return joinSorted(hs), nil
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func joinSorted(hs []string) string {
	sort.Strings(hs)
	return strings.Join(hs, ",")
}
