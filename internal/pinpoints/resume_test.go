package pinpoints

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"elfie/internal/farm"
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

// journalRecords re-opens the run journal at the store dir and returns every
// replayed record.
func journalRecords(t *testing.T, dir string) []farm.Record {
	t.Helper()
	jr, err := farm.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	return jr.Records()
}

// TestCheckpointedReplayStage arms the live-checkpointing replay stage on a
// store-backed pipeline: every region's fat pinball is replayed with periodic
// mid-run checkpoints chunked into the store and journaled. The checkpoints
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

	// The journal recorded checkpoint keys for the replay jobs.
	var ckptRecs int
	for _, r := range journalRecords(t, dir) {
		if r.Event == farm.EvCkpt {
			if r.Stage != "replay" || !strings.HasPrefix(r.Ckpt, "ckpt/") {
				t.Errorf("malformed checkpoint record: %+v", r)
			}
			ckptRecs++
		}
	}
	if ckptRecs == 0 {
		t.Error("no checkpoint records journaled")
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
// from the journaled checkpoint. Long regions can only complete if resumption
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

	// The journal shows the interruption/resume cycle: a long region's
	// replay job has multiple start records with checkpoints in between.
	starts := make(map[string]int)
	for _, r := range journalRecords(t, dir) {
		if r.Stage == "replay" && r.Event == farm.EvStart {
			starts[r.Job]++
		}
	}
	var resumed int
	for _, nStarts := range starts {
		if nStarts >= 2 {
			resumed++
		}
	}
	if resumed == 0 {
		t.Errorf("journal shows no resumed replay job: %v", starts)
	}
}

// TestCrashMidFlightResumesByteIdentical is the crash-recovery contract: a
// -j 8 store-backed run is killed mid-flight (simulated crash between journal
// records), then re-invoked with Resume. The resumed run must succeed, redo
// none of the work whose results survived (completed region chains and the
// profile are served from the store), and produce artifacts byte-identical to
// an uninterrupted run.
func TestCrashMidFlightResumesByteIdentical(t *testing.T) {
	// The uninterrupted reference.
	refCfg := smallConfig()
	refCfg.Jobs = 8
	ref, err := Prepare(smallRecipe(), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref.Selection.Regions)
	if n == 0 {
		t.Fatal("no regions selected")
	}

	// Leg 1: same pipeline against a fresh store, dying after 2+5n journal
	// appends — partway through the region chains (the full run writes 2+6n).
	dir := t.TempDir()
	crashAt := 2 + 5*n
	cfg1 := smallConfig()
	cfg1.Jobs = 8
	cfg1.Store = openStore(t, dir)
	cfg1.crashAfter = crashAt
	if _, err := Prepare(smallRecipe(), cfg1); !errors.Is(err, farm.ErrCrashed) {
		t.Fatalf("crashed run returned %v, want %v", err, farm.ErrCrashed)
	}
	leg1 := journalRecords(t, dir)
	if len(leg1) != crashAt {
		t.Fatalf("leg 1 journal has %d records, want exactly %d", len(leg1), crashAt)
	}

	// Leg 2: resume. It must complete cleanly.
	cfg2 := smallConfig()
	cfg2.Jobs = 8
	cfg2.Store = openStore(t, dir)
	cfg2.Resume = true
	b2, err := Prepare(smallRecipe(), cfg2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if len(b2.Degradation.Events) != 0 {
		t.Fatalf("resume recorded failures: %+v", b2.Degradation.Events)
	}

	// Byte-identical artifacts: the crash+resume pair equals the
	// uninterrupted run, region for region.
	if len(b2.Regions) != len(ref.Regions) {
		t.Fatalf("region count: resumed %d, reference %d", len(b2.Regions), len(ref.Regions))
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

	// Zero re-done completed work: a region whose chain finished before the
	// crash (its lint is journaled done, so its artifact is in the store)
	// must not run any job again; same for the profile. Mid-chain jobs may
	// legitimately re-run — their in-memory results died with the process.
	all := journalRecords(t, dir)
	leg2 := all[crashAt:]
	restarted := func(prefix string) bool {
		for _, r := range leg2 {
			if r.Event == farm.EvStart && strings.HasPrefix(r.Job, prefix) {
				return true
			}
		}
		return false
	}
	var completed int
	for _, r := range leg1 {
		if r.Event != farm.EvDone {
			continue
		}
		switch {
		case r.Job == "profile":
			if restarted("profile") {
				t.Error("completed profile re-ran after resume")
			}
		case strings.HasSuffix(r.Job, ".lint"):
			region := strings.SplitN(r.Job, ".", 2)[0] // "region<idx>"
			completed++
			if restarted(region + ".") {
				t.Errorf("completed %s re-ran after resume", region)
			}
		}
	}
	if completed > 0 && b2.JobStats.Cached == 0 {
		t.Errorf("leg 1 completed %d regions but resume cached nothing: %s",
			completed, &b2.JobStats)
	}
	t.Logf("crash at %d appends: %d/%d regions completed pre-crash; resume: %s",
		crashAt, completed, n, &b2.JobStats)
}

// TestChaosReplayStageRecovers arms a one-shot forced-ungraceful-exit fault
// with the checkpointed replay stage on at -j 8: the fault strikes one armed
// replay machine, the divergence is classified and recovered through an
// alternate, and the accounting invariant (recovered + dropped == injected)
// holds end to end with the journal and checkpoint store in the loop.
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
