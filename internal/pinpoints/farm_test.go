package pinpoints

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/store"
	"elfie/internal/workloads"
)

// elfieBytes renders every region ELFie for byte-level comparison.
func elfieBytes(t *testing.T, b *Benchmark) [][]byte {
	t.Helper()
	out := make([][]byte, len(b.Regions))
	for i, reg := range b.Regions {
		buf, err := reg.ELFie.Write()
		if err != nil {
			t.Fatalf("region %d elfie: %v", i, err)
		}
		out[i] = buf
	}
	return out
}

// sameDegradation asserts two degradation summaries describe the same
// outcomes (errors compare by kind/action, not by identity).
func sameDegradation(t *testing.T, label string, a, b DegradationSummary) {
	t.Helper()
	if a.Recovered != b.Recovered || a.Dropped != b.Dropped || a.CoverageLost != b.CoverageLost {
		t.Errorf("%s: summary differs: %s vs %s", label, a, b)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("%s: %d vs %d events", label, len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.Cluster != y.Cluster || x.Slice != y.Slice || x.Kind != y.Kind ||
			x.Recovered != y.Recovered || x.Action != y.Action {
			t.Errorf("%s: event %d differs: %+v vs %+v", label, i, x, y)
		}
	}
}

func fileInputRecipe(t *testing.T) workloads.Recipe {
	t.Helper()
	for _, c := range workloads.TrainIntRate() {
		if c.FileInput {
			return c
		}
	}
	t.Fatal("no file-input recipe")
	return workloads.Recipe{}
}

// TestDeterminismAcrossWorkers is the farm's core contract: -j 1 and -j 8
// produce byte-identical ELFies, the same degradation record, and the same
// predicted CPI — parallelism changes wall-clock, never output.
func TestDeterminismAcrossWorkers(t *testing.T) {
	noSys := smallConfig()
	noSys.UseSysState = false
	cases := []struct {
		name   string
		recipe workloads.Recipe
		cfg    Config
	}{
		{"phased-sysstate", smallRecipe(), smallConfig()},
		{"file-input-nosysstate", fileInputRecipe(t), noSys},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, parallel := tc.cfg, tc.cfg
			serial.Jobs = 1
			parallel.Jobs = 8
			b1, err := Prepare(tc.recipe, serial)
			if err != nil {
				t.Fatal(err)
			}
			b8, err := Prepare(tc.recipe, parallel)
			if err != nil {
				t.Fatal(err)
			}

			if len(b1.Regions) != len(b8.Regions) {
				t.Fatalf("region count: %d vs %d", len(b1.Regions), len(b8.Regions))
			}
			e1, e8 := elfieBytes(t, b1), elfieBytes(t, b8)
			for i := range e1 {
				r1, r8 := b1.Regions[i], b8.Regions[i]
				if r1.SliceUsed != r8.SliceUsed || r1.Cluster != r8.Cluster ||
					r1.Pinball.Name != r8.Pinball.Name {
					t.Errorf("region %d identity differs: slice %d/%d cluster %d/%d",
						i, r1.SliceUsed, r8.SliceUsed, r1.Cluster, r8.Cluster)
				}
				if !bytes.Equal(e1[i], e8[i]) {
					t.Errorf("region %d ELFie differs between -j 1 and -j 8 (%d vs %d bytes)",
						i, len(e1[i]), len(e8[i]))
				}
			}
			sameDegradation(t, "prepare", b1.Degradation, b8.Degradation)

			v1, err := ValidateNative(b1, 7)
			if err != nil {
				t.Fatal(err)
			}
			v8, err := ValidateNative(b8, 7)
			if err != nil {
				t.Fatal(err)
			}
			if v1.TrueCPI != v8.TrueCPI || v1.PredictedCPI != v8.PredictedCPI ||
				v1.Coverage != v8.Coverage {
				t.Errorf("validation differs:\n  -j 1: %s\n  -j 8: %s", v1, v8)
			}
			sameDegradation(t, "validate", v1.Degradation, v8.Degradation)
		})
	}
}

// TestWarmCacheSkipsWork proves the warm re-run does zero logging and
// conversion: every region (and the profile) is served from the store, with
// the counters as evidence and byte-identical artifacts as the result.
func TestWarmCacheSkipsWork(t *testing.T) {
	dir := t.TempDir()
	run := func() *Benchmark {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.Store = s
		cfg.Jobs = 4
		b, err := Prepare(smallRecipe(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := b.CacheErrors(); n != 0 {
			t.Fatalf("cache errors: %d", n)
		}
		return b
	}

	cold := run()
	n := len(cold.Regions)
	if n == 0 {
		t.Fatal("no regions")
	}
	cs := cold.JobStats
	if cs.Stages["log"].Run != n || cs.Stages["convert"].Run != n || cs.Cached != 0 {
		t.Fatalf("cold run did not build everything: %s (log=%+v convert=%+v)",
			&cs, cs.Stages["log"], cs.Stages["convert"])
	}

	warm := run()
	ws := warm.JobStats
	for _, stage := range []string{"profile", "log", "convert"} {
		ss := ws.Stages[stage]
		if ss.Run != 0 {
			t.Errorf("warm run executed %d %s job(s), want 0 (%+v)", ss.Run, stage, ss)
		}
	}
	if ws.Stages["log"].Cached != n || ws.Stages["convert"].Cached != n ||
		ws.Stages["profile"].Cached != 1 {
		t.Errorf("warm cache hits: %s (log=%+v convert=%+v profile=%+v)",
			&ws, ws.Stages["log"], ws.Stages["convert"], ws.Stages["profile"])
	}

	// The forward pass is lazy: the cold run took a snapshot at each
	// region start past instruction 0, the warm run (every log job a cache
	// hit) started no pass at all.
	starts := map[uint64]bool{}
	for _, reg := range cold.Regions {
		if reg.StartIcount > 0 {
			starts[reg.StartIcount] = true
		}
	}
	if len(starts) == 0 || len(cold.pass.snaps) != len(starts) {
		t.Errorf("cold run took %d snapshots for %d region starts", len(cold.pass.snaps), len(starts))
	}
	if wp := warm.pass; len(wp.snaps) != 0 || wp.sess != nil || len(wp.stops) != len(starts) {
		t.Errorf("warm run ran the forward pass: %d snapshots, %d of %d stops left",
			len(wp.snaps), len(wp.stops), len(starts))
	}

	ec, ew := elfieBytes(t, cold), elfieBytes(t, warm)
	if len(ec) != len(ew) {
		t.Fatalf("region count: cold %d warm %d", len(ec), len(ew))
	}
	for i := range ec {
		if !bytes.Equal(ec[i], ew[i]) {
			t.Errorf("region %d: cached ELFie differs from freshly built", i)
		}
	}
}

// TestCorruptCacheEntryRebuilds flips bytes in every stored object and
// re-runs: the pipeline must fall back to rebuilding (counting the cache
// errors) instead of serving rot.
func TestCorruptCacheEntryRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Store = s
	b1, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every object by appending to one file inside it.
	for _, e := range s.Entries() {
		files, _, ok, err := s.Get(e.Key)
		if err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", e.Key, ok, err)
		}
		for name := range files {
			files[name] = append(files[name], 0xff)
			break
		}
		if err := s.Delete(e.Key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(e.Key, e.Kind, files); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig()
	cfg2.Store = s2
	b2, err := Prepare(smallRecipe(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.CacheErrors() == 0 {
		t.Error("poisoned cache produced no cache errors")
	}
	if b2.JobStats.Run == 0 {
		t.Error("poisoned cache still served everything")
	}
	e1, e2 := elfieBytes(t, b1), elfieBytes(t, b2)
	for i := range e1 {
		if !bytes.Equal(e1[i], e2[i]) {
			t.Errorf("region %d: rebuild after cache corruption diverged", i)
		}
	}
}

// TestWarmStoreVerifyLintClean closes the loop between the farm's lint gate
// and the store's deep verify: a store warmed by the pipeline passes
// VerifyWith(Lint) — every cached region was linted before it was stored —
// and a semantically damaged ELFie (valid CRCs, broken restore stub) is
// caught only by the lint pass, not by the plain scan.
func TestWarmStoreVerifyLintClean(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Store = s
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := s.VerifyWith(store.VerifyOptions{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("warm store fails lint verify: %+v", rep.Problems)
	}
	if rep.Linted != len(b.Regions) || rep.Linted == 0 {
		t.Fatalf("linted %d ELFies, want %d", rep.Linted, len(b.Regions))
	}

	// Damage one cached ELFie the way the CRC manifest cannot see: drop a
	// register restore from its stub and re-store the object (fresh content
	// address, intact pinball CRCs).
	var mut elflint.Mutation
	for _, m := range elflint.Mutations() {
		if m.Name == "dropped-register-restore" {
			mut = m
		}
	}
	damaged := 0
	for _, e := range s.Entries() {
		if e.Kind != "region" {
			continue
		}
		files, _, ok, err := s.Get(e.Key)
		if err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", e.Key, ok, err)
		}
		exe, err := elfobj.Read(files["elfie.bin"])
		if err != nil {
			t.Fatal(err)
		}
		if err := mut.Apply(exe, nil); err != nil {
			t.Fatal(err)
		}
		files["elfie.bin"], err = exe.Write()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(e.Key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(e.Key, e.Kind, files); err != nil {
			t.Fatal(err)
		}
		damaged++
		break
	}
	if damaged != 1 {
		t.Fatal("no region object to damage")
	}

	plain, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !plain.OK() {
		t.Fatalf("plain verify caught semantic damage it should not see: %+v", plain.Problems)
	}
	deep, err := s.VerifyWith(store.VerifyOptions{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.Problems) != 1 {
		t.Fatalf("lint verify found %d problems, want 1: %+v", len(deep.Problems), deep.Problems)
	}
	if msg := deep.Problems[0].Err.Error(); !strings.Contains(msg, elflint.RuleRestore) {
		t.Errorf("problem does not cite %s: %s", elflint.RuleRestore, msg)
	}
}

// TestParallelBeatsSerial times the same pipeline at -j 1 and -j N: with
// independent per-region work the farm must win wall-clock while producing
// identical artifacts (the byte-level check lives in
// TestDeterminismAcrossWorkers; here a cheap identity check suffices).
func TestParallelBeatsSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 CPU")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	recipe := smallRecipe()

	timed := func(jobs int) (*Benchmark, time.Duration) {
		cfg := smallConfig()
		cfg.Jobs = jobs
		start := time.Now()
		b, err := Prepare(recipe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b, time.Since(start)
	}
	// Warm the workload build cache so the comparison times only the farm.
	timed(1)

	b1, serial := timed(1)
	bN, parallel := timed(runtime.GOMAXPROCS(0))
	t.Logf("prepare: -j 1 %v, -j %d %v (%d regions)",
		serial, runtime.GOMAXPROCS(0), parallel, len(b1.Regions))

	if len(b1.Regions) != len(bN.Regions) {
		t.Fatalf("region count: %d vs %d", len(b1.Regions), len(bN.Regions))
	}
	for i := range b1.Regions {
		if b1.Regions[i].SliceUsed != bN.Regions[i].SliceUsed {
			t.Errorf("region %d slice differs", i)
		}
	}
	if parallel >= serial {
		t.Errorf("parallel (%v) not faster than serial (%v)", parallel, serial)
	}
}

// TestBlockCacheThroughFarmParallel drives the decoded-block fast path
// through the whole pipeline at -j 8, then replays every region's ELFie from
// 8 concurrent goroutines, twice over — the -race companion proving the
// per-machine block caches and software TLBs share no state. Replays run
// unhooked, so they take the block fast path; a serial round with the cache
// disabled pins down that both execution paths retire identical streams.
func TestBlockCacheThroughFarmParallel(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 8
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Regions) == 0 {
		t.Fatal("no regions")
	}

	type result struct {
		retired uint64
		exit    int
		fired   bool
	}
	runAll := func(disable bool) []result {
		out := make([]result, len(b.Regions))
		var wg sync.WaitGroup
		for i := range b.Regions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, err := b.RunELFie(b.Regions[i], 7)
				if err != nil {
					t.Error(err)
					return
				}
				m.DisableBlockCache = disable
				if err := m.Run(); err != nil {
					t.Error(err)
					return
				}
				out[i] = result{m.GlobalRetired, m.ExitStatus, Completed(m)}
			}(i)
		}
		wg.Wait()
		return out
	}

	fast1 := runAll(false)
	fast2 := runAll(false)
	slow := runAll(true)
	for i := range fast1 {
		if fast1[i] != fast2[i] {
			t.Errorf("region %d: parallel replays differ: %+v vs %+v", i, fast1[i], fast2[i])
		}
		if fast1[i] != slow[i] {
			t.Errorf("region %d: block path diverges from step path: %+v vs %+v",
				i, fast1[i], slow[i])
		}
		if !fast1[i].fired {
			t.Errorf("region %d: replay did not reach its graceful exit", i)
		}
	}
}

// panicOnPut is a store whose writes panic, standing in for a broken store
// implementation.
type panicOnPut struct{ store.Cache }

func (panicOnPut) Put(string, string, store.FileSet) (*store.Entry, error) {
	panic("store write")
}

// TestPrepareReturnsProfileError: a failed profile job never submits the
// select job, and Prepare reports the profile's error.
func TestPrepareReturnsProfileError(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Store = panicOnPut{s}
	b, err := Prepare(smallRecipe(), cfg)
	if err == nil || !strings.Contains(err.Error(), "job profile panicked") {
		t.Fatalf("Prepare = %v, %v; want the profile job's error", b, err)
	}
}
