package pinpoints

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/store"
)

// openStore opens (or re-opens) the artifact store at dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ckptTraffic is a store.Cache that counts reads and writes of checkpoint
// keys.
type ckptTraffic struct {
	store.Cache
	gets, puts atomic.Int32
}

func (c *ckptTraffic) Get(key string) (store.FileSet, *store.Entry, bool, error) {
	if strings.HasPrefix(key, "ckpt/") {
		c.gets.Add(1)
	}
	return c.Cache.Get(key)
}

func (c *ckptTraffic) PutChunked(key, kind string, files store.FileSet, chunkSize int) (*store.Entry, error) {
	if strings.HasPrefix(key, "ckpt/") {
		c.puts.Add(1)
	}
	return c.Cache.PutChunked(key, kind, files, chunkSize)
}

// TestCheckpointedReplayStage arms the live-checkpointing replay stage on a
// store-backed pipeline: every region's fat pinball is replayed with periodic
// mid-run checkpoints chunked into the store under the region's checkpoint
// key. The checkpoints
// must pass the store's deep verify (they are resumable pinballs, not blobs),
// and a warm re-run must skip the replay stage entirely — the region was
// cached only after its replay completed.
func TestCheckpointedReplayStage(t *testing.T) {
	dir := t.TempDir()
	run := func() *Benchmark {
		cfg := smallConfig()
		cfg.Store = openStore(t, dir)
		cfg.Jobs = 4
		cfg.CkptEvery = 60_000
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
	rs := cold.JobStats.Stage("replay")
	if rs.Run != n || rs.Failed != 0 {
		t.Fatalf("cold replay stage: %+v (want %d run, 0 failed)", rs, n)
	}
	if len(cold.Degradation.Events) != 0 {
		t.Fatalf("clean replays recorded failures: %+v", cold.Degradation.Events)
	}

	// Each region's replay left its newest checkpoint under the region's
	// checkpoint key, one entry per region.
	st := openStore(t, dir)
	for _, reg := range cold.Regions {
		key, err := cold.ckptKey(reg.SliceUsed)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := st.Stat(key); !ok || e.Kind != "checkpoint" {
			t.Errorf("slice %d: no checkpoint entry under %s", reg.SliceUsed, key)
		}
	}
	var ckpts int
	for _, e := range st.Entries() {
		if e.Kind == "checkpoint" {
			ckpts++
		}
	}
	if ckpts != n {
		t.Errorf("store holds %d checkpoint entries for %d regions", ckpts, n)
	}

	// Every stored checkpoint is a valid, resumable pinball, and the store
	// as a whole (regions + checkpoints) passes the deep verify.
	rep, err := openStore(t, dir).VerifyWith(store.VerifyOptions{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store with checkpoints fails verify: %+v", rep.Problems)
	}
	if rep.Checkpoints == 0 {
		t.Error("deep verify validated no checkpoints")
	}

	// Warm re-run: regions were cached post-replay, so every stage —
	// including replay — is a cache hit, and the artifacts match.
	warm := run()
	ws := warm.JobStats.Stage("replay")
	if ws.Run != 0 || ws.Cached != n {
		t.Errorf("warm replay stage: %+v (want 0 run, %d cached)", ws, n)
	}
	ec, ew := elfieBytes(t, cold), elfieBytes(t, warm)
	for i := range ec {
		if !bytes.Equal(ec[i], ew[i]) {
			t.Errorf("region %d: post-replay cached ELFie differs from freshly built", i)
		}
	}
}

// TestReplayBudgetWatchdogResumesFromCheckpoint bounds each replay attempt to
// an instruction budget smaller than the region length: the watchdog
// interrupts every long attempt (checkpoint-then-stop) and the retry resumes
// from the checkpoint the attempt stored. Long regions can only complete if resumption
// actually works — a from-scratch retry would hit the same budget wall every
// time and drop the region — so zero degradation events is the proof.
func TestReplayBudgetWatchdogResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Store = openStore(t, dir)
	cfg.Jobs = 4
	cfg.CkptEvery = 123_000
	cfg.ReplayBudget = 170_000
	cfg.ReplayDeadline = 2 * time.Minute
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Regions) == 0 {
		t.Fatal("no regions")
	}
	if len(b.Degradation.Events) != 0 {
		t.Fatalf("budget watchdog dropped or degraded regions: %+v", b.Degradation.Events)
	}

	var long int
	for _, reg := range b.Regions {
		if reg.Warmup+cfg.SliceSize > cfg.ReplayBudget {
			long++
		}
	}
	if long == 0 {
		t.Skip("selection produced only short regions; watchdog cannot trigger")
	}
	rs := b.JobStats.Stage("replay")
	if rs.Retried == 0 {
		t.Errorf("no replay attempt was interrupted: %+v (%d long regions)", rs, long)
	}
	if rs.Failed != 0 {
		t.Errorf("replay stage failed jobs: %+v", rs)
	}

	// Every long region was interrupted at least once, and its newest
	// checkpoint is in the store: the retries had something to resume from.
	if rs.Retried < long {
		t.Errorf("%d replay retries for %d long regions: %+v", rs.Retried, long, rs)
	}
	st := cfg.Store.(*store.Store)
	for _, reg := range b.Regions {
		key, err := b.ckptKey(reg.SliceUsed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Stat(key); !ok {
			t.Errorf("slice %d: replay left no checkpoint in the store", reg.SliceUsed)
		}
	}
}

// slowCkptStore is a store.Cache whose checkpoint writes take a fixed
// time, longer than the replay deadline under test.
type slowCkptStore struct {
	store.Cache
	delay time.Duration
}

func (s slowCkptStore) PutChunked(key, kind string, files store.FileSet, chunkSize int) (*store.Entry, error) {
	time.Sleep(s.delay)
	return s.Cache.PutChunked(key, kind, files, chunkSize)
}

// TestReplayDeadlineDuringCheckpointSave gives each replay attempt a
// deadline shorter than one checkpoint write, so the deadline always passes
// while a periodic checkpoint is being saved. The attempt must end at that
// checkpoint — a deadline lost between run segments lets every attempt run
// to the end — and the retries resuming from it must still finish every
// region.
func TestReplayDeadlineDuringCheckpointSave(t *testing.T) {
	cfg := smallConfig()
	cfg.Store = slowCkptStore{Cache: openStore(t, t.TempDir()), delay: 150 * time.Millisecond}
	cfg.MaxK = 2
	cfg.Jobs = 1
	cfg.CkptEvery = 100_000
	cfg.ReplayDeadline = 60 * time.Millisecond
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Regions) == 0 {
		t.Fatal("no regions")
	}
	rs := b.JobStats.Stage("replay")
	if rs.Retried == 0 {
		t.Errorf("the deadline never interrupted a replay attempt: %+v", rs)
	}
	if rs.Failed != 0 {
		t.Errorf("replay stage failed jobs: %+v", rs)
	}
	if len(b.Degradation.Events) != 0 {
		t.Errorf("deadline interruptions dropped or degraded regions: %+v", b.Degradation.Events)
	}
}

// TestCrashMidFlightResumesByteIdentical is the crash-recovery contract: the
// store is a run's only resume state, so a run killed mid-flight is modelled
// as a store holding the profile and only some regions — here a -j 8 run's
// store with half its region entries deleted. The re-run must re-log
// exactly the missing regions, serve the rest and the profile from the
// store, and produce artifacts byte-identical to an uninterrupted run.
func TestCrashMidFlightResumesByteIdentical(t *testing.T) {
	// The uninterrupted reference.
	refCfg := smallConfig()
	refCfg.Jobs = 8
	ref, err := Prepare(smallRecipe(), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref.Regions)
	if n < 2 {
		t.Fatalf("%d regions selected, want at least 2", n)
	}

	// Leg 1 fills a fresh store; the "crash" then loses every other region.
	dir := t.TempDir()
	cfg1 := smallConfig()
	cfg1.Jobs = 8
	st := openStore(t, dir)
	cfg1.Store = st
	b1, err := Prepare(smallRecipe(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	lost := map[int]bool{}
	for i, reg := range b1.Regions {
		if i%2 != 0 {
			continue
		}
		key, err := b1.regionCacheKey(reg.SliceUsed)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(key); err != nil {
			t.Fatal(err)
		}
		lost[reg.SliceUsed] = true
	}

	// Leg 2: the re-run is the resume. It must complete cleanly.
	cfg2 := smallConfig()
	cfg2.Jobs = 8
	log := &putLog{Cache: openStore(t, dir), recipe: smallRecipe().Name}
	cfg2.Store = log
	b2, err := Prepare(smallRecipe(), cfg2)
	if err != nil {
		t.Fatalf("re-run failed: %v", err)
	}
	if len(b2.Degradation.Events) != 0 {
		t.Fatalf("re-run recorded failures: %+v", b2.Degradation.Events)
	}

	// Exactly the lost regions were re-logged (and re-cached); the rest and
	// the profile were served from the store.
	ls := b2.JobStats.Stage("log")
	if ls.Run != len(lost) || ls.Cached != n-len(lost) {
		t.Errorf("log stage: %+v, want %d run and %d cached", ls, len(lost), n-len(lost))
	}
	if ps := b2.JobStats.Stage("profile"); ps.Run != 0 || ps.Cached != 1 {
		t.Errorf("profile re-ran: %+v", ps)
	}
	relogged := map[int]bool{}
	for _, w := range log.puts {
		relogged[w.slice] = true
	}
	if fmt.Sprint(relogged) != fmt.Sprint(lost) {
		t.Errorf("re-run cached slices %v, want exactly the lost %v", relogged, lost)
	}

	// Byte-identical artifacts: the crash+resume pair equals the
	// uninterrupted run, region for region.
	if len(b2.Regions) != n {
		t.Fatalf("region count: resumed %d, reference %d", len(b2.Regions), n)
	}
	er, e2 := elfieBytes(t, ref), elfieBytes(t, b2)
	for i := range er {
		if ref.Regions[i].SliceUsed != b2.Regions[i].SliceUsed ||
			ref.Regions[i].Pinball.Name != b2.Regions[i].Pinball.Name {
			t.Errorf("region %d identity differs after resume", i)
		}
		if !bytes.Equal(er[i], e2[i]) {
			t.Errorf("region %d: resumed ELFie differs from uninterrupted build", i)
		}
	}
}

// TestRerunResumesReplayFromStoredCheckpoint: a store that holds a region's
// checkpoint but not its region entry — a run killed during that region's
// replay — makes the next Prepare resume the replay from the checkpoint. The
// first run's replays end with their last periodic checkpoint less than
// CkptEvery from the end, so under a budget above CkptEvery but below the
// region length the resumed replay completes in its first attempt, where a
// replay from the region pinball would need a retry.
func TestRerunResumesReplayFromStoredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Jobs = 4
	cfg.CkptEvery = 60_000
	st := openStore(t, dir)
	cfg.Store = st
	b1, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReplayBudget = 100_000
	var victim *Region
	for _, reg := range b1.Regions {
		if reg.Warmup+cfg.SliceSize > cfg.ReplayBudget {
			victim = reg
			break
		}
	}
	if victim == nil {
		t.Fatal("no region longer than the replay budget")
	}
	key, err := b1.regionCacheKey(victim.SliceUsed)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(key); err != nil {
		t.Fatal(err)
	}

	traffic := &ckptTraffic{Cache: openStore(t, dir)}
	cfg.Store = traffic
	b2, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Degradation.Events) != 0 {
		t.Fatalf("re-run recorded failures: %+v", b2.Degradation.Events)
	}
	rs := b2.JobStats.Stage("replay")
	if rs.Run != 1 || rs.Retried != 0 || rs.Failed != 0 {
		t.Errorf("replay stage: %+v, want one job that finished in its first attempt", rs)
	}
	if traffic.gets.Load() != 1 {
		t.Errorf("re-run read %d checkpoints, want 1", traffic.gets.Load())
	}
}

// TestFaultPlanNeverLoadsForeignCheckpoint: under a fault plan the store is
// not trusted, for checkpoints as for regions. A fresh Prepare over a store
// full of another run's checkpoints reads none of them and publishes none
// of its own, yet its budget-interrupted replays still finish, resuming
// from the checkpoints their own attempts kept. The plan has no rules, so
// any failure is the mechanism's.
func TestFaultPlanNeverLoadsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Jobs = 4
	cfg.CkptEvery = 123_000
	cfg.Store = openStore(t, dir)
	if _, err := Prepare(smallRecipe(), cfg); err != nil {
		t.Fatal(err)
	}

	traffic := &ckptTraffic{Cache: openStore(t, dir)}
	cfg.Store = traffic
	cfg.Fault = &fault.Plan{Seed: 1}
	cfg.ReplayBudget = 170_000
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, p := traffic.gets.Load(), traffic.puts.Load(); g != 0 || p != 0 {
		t.Errorf("fault-plan run read %d and wrote %d store checkpoints, want none", g, p)
	}
	rs := b.JobStats.Stage("replay")
	if rs.Retried == 0 {
		t.Errorf("no replay attempt was interrupted: %+v", rs)
	}
	if rs.Failed != 0 || len(b.Degradation.Events) != 0 {
		t.Errorf("interrupted replays did not resume: %+v, events %+v", rs, b.Degradation.Events)
	}
}

// TestChaosReplayStageRecovers arms a one-shot forced-ungraceful-exit fault
// with the checkpointed replay stage on at -j 8: the fault strikes one armed
// replay machine, the divergence is classified and recovered through an
// alternate, and the accounting invariant (recovered + dropped == injected)
// holds end to end with the checkpointed replay stage in the loop.
func TestChaosReplayStageRecovers(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = chaosPlans()["forced-ungraceful-exit"]
	cfg.Jobs = 8
	cfg.Store = openStore(t, t.TempDir())
	cfg.CkptEvery = 60_000
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		if !errors.Is(err, ErrAllRegionsFailed) {
			t.Fatalf("untyped Prepare failure: %v", err)
		}
		return
	}
	injected := b.FaultInjector().InjectedCount()
	if injected == 0 {
		t.Fatalf("plan injected nothing; events: %v", b.FaultInjector().Events())
	}
	d := b.Degradation
	if d.Recovered+d.Dropped != injected {
		t.Errorf("recovered %d + dropped %d != %d injected; events: %+v",
			d.Recovered, d.Dropped, injected, d.Events)
	}
	if st := b.JobStats.Stage("replay"); st.Run == 0 {
		t.Errorf("replay stage never ran: %+v", st)
	}
	for _, ev := range d.Events {
		if ev.Err == nil || ev.Kind == "" || ev.Action == "" {
			t.Errorf("incomplete failure record: %+v", ev)
		}
	}
	t.Logf("chaos through replay stage: injected=%d %s; stats: %s",
		injected, d, &b.JobStats)
}

// TestFailureOfInterrupted pins the taxonomy entry the replay watchdogs rely
// on: a watchdog interruption classifies as FailInterrupted — tagged or bare
// — and the tagged error still unwraps to harness.ErrInterrupted, which is
// what the farm's RetryIf matches to retry-from-checkpoint.
func TestFailureOfInterrupted(t *testing.T) {
	if k := FailureOf(harness.ErrInterrupted); k != FailInterrupted {
		t.Errorf("bare interruption classified %s, want %s", k, FailInterrupted)
	}
	err := failf(FailInterrupted, "replay r: %w", harness.ErrInterrupted)
	if k := FailureOf(err); k != FailInterrupted {
		t.Errorf("tagged interruption classified %s, want %s", k, FailInterrupted)
	}
	if !errors.Is(err, harness.ErrInterrupted) {
		t.Error("tagged interruption lost the harness.ErrInterrupted sentinel")
	}
}

// putLog is a store.Cache that records, in write order, which slice each
// region or checkpoint write belongs to.
type putLog struct {
	store.Cache
	recipe string
	mu     sync.Mutex
	puts   []slicePut
}

type slicePut struct {
	kind  string // "region" or "checkpoint"
	slice int
}

func (p *putLog) Put(key, kind string, files store.FileSet) (*store.Entry, error) {
	var meta regionMeta
	if kind == "region" && json.Unmarshal(files["region.json"], &meta) == nil {
		p.note(slicePut{kind, meta.SliceUsed})
	}
	return p.Cache.Put(key, kind, files)
}

func (p *putLog) PutChunked(key, kind string, files store.FileSet, chunkSize int) (*store.Entry, error) {
	for name := range files {
		var slice int
		if _, err := fmt.Sscanf(name, p.recipe+".s%d.ckpt.text", &slice); err == nil {
			p.note(slicePut{kind, slice})
		}
	}
	return p.Cache.PutChunked(key, kind, files, chunkSize)
}

func (p *putLog) note(w slicePut) {
	p.mu.Lock()
	p.puts = append(p.puts, w)
	p.mu.Unlock()
}

// TestValidationAlternatesReplayBeforeCaching runs validation without
// sysstate, so failing ELFies fall back to alternates, with the
// checkpointed replay stage armed: every alternate validation builds must
// go through the same stage chain as Prepare's regions — replayed, with
// its checkpoints in the store, before its region entry is cached.
func TestValidationAlternatesReplayBeforeCaching(t *testing.T) {
	recipe := fileInputRecipe(t)
	cfg := smallConfig()
	cfg.UseSysState = false
	cfg.Jobs = 2
	cfg.CkptEvery = 60_000
	log := &putLog{Cache: openStore(t, t.TempDir()), recipe: recipe.Name}
	cfg.Store = log
	b, err := Prepare(recipe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log.puts = nil // Prepare's farm has finished; keep validation's writes

	v, err := ValidateNative(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	alts := 0
	for _, rc := range v.PerRegion {
		if rc.UsedAlternate >= 0 {
			alts++
		}
	}
	if alts == 0 {
		t.Fatalf("validation used no alternate: %s", v)
	}
	replayed := make(map[int]bool)
	cached := 0
	for _, w := range log.puts {
		switch w.kind {
		case "checkpoint":
			replayed[w.slice] = true
		case "region":
			cached++
			if !replayed[w.slice] {
				t.Errorf("alternate slice %d cached before any replay checkpoint was stored", w.slice)
			}
		}
	}
	if cached < alts {
		t.Errorf("validation cached %d alternates, used %d", cached, alts)
	}
	if n := b.CacheErrors(); n != 0 {
		t.Errorf("cache errors: %d", n)
	}
	t.Logf("%s; %d alternates cached after replay", v, cached)
}

// TestValidationAlternatesResumeUnderBudget: validation builds alternates
// with the same stage chain as Prepare, so under a replay budget below an
// alternate's region length its replay is interrupted and resumes from its
// own checkpoints like Prepare's do. Every alternate validation replays
// completes and is cached.
func TestValidationAlternatesResumeUnderBudget(t *testing.T) {
	recipe := fileInputRecipe(t)
	cfg := smallConfig()
	cfg.UseSysState = false
	cfg.Jobs = 2
	cfg.CkptEvery = 60_000
	cfg.ReplayBudget = 100_000
	log := &putLog{Cache: openStore(t, t.TempDir()), recipe: recipe.Name}
	cfg.Store = log
	b, err := Prepare(recipe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log.puts = nil // Prepare's farm has finished; keep validation's writes

	v, err := ValidateNative(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	replayed, cached := map[int]bool{}, map[int]bool{}
	for _, w := range log.puts {
		if w.kind == "checkpoint" {
			replayed[w.slice] = true
		} else {
			cached[w.slice] = true
		}
	}
	long := 0
	for slice := range replayed {
		if !cached[slice] {
			t.Errorf("alternate slice %d replayed but was never cached", slice)
		}
		if _, warmup := b.regionWindow(slice); warmup+cfg.SliceSize > cfg.ReplayBudget {
			long++
		}
	}
	if long == 0 {
		t.Fatalf("no alternate longer than the replay budget was replayed: %s", v)
	}
	t.Logf("%s; %d alternates replayed, %d past the budget", v, len(replayed), long)
}
