package pinpoints

// The checkpointed constrained-replay stage ("replay" in the farm) is where
// live mid-run checkpointing meets the pipeline: each region's fat pinball
// is re-executed under injection, dropping a resumable checkpoint pinball
// into the artifact store every Config.CkptEvery retired instructions, under
// one key per region. Two bounds cap each attempt — a wall-clock deadline
// (Config.ReplayDeadline) and an instruction budget (Config.ReplayBudget) —
// and the harness run loop enforces both, so the interrupted attempt
// checkpoints before it returns and the retry (or a re-run of a killed
// process) continues from exactly where it stopped.

import (
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/store"
)

// ckptKey is the store key of a region's newest checkpoint: derived from the
// region's own cache key, so any run of the same configuration finds it, and
// overwritten by each newer checkpoint (chunk dedup keeps that cheap, and GC
// reclaims the superseded objects).
func (b *Benchmark) ckptKey(slice int) (string, error) {
	key, err := b.regionCacheKey(slice)
	return "ckpt/" + key, err
}

// replayRegion is the Run body of one replay-stage attempt. It resumes from
// the region's newest trusted checkpoint when there is one (otherwise it
// starts from the region's pinball), replays with injection, and classifies
// the outcome into the pipeline's failure taxonomy.
func (b *Benchmark) replayRegion(rb *regionBuild) error {
	reg := rb.reg
	pb := reg.Pinball
	ckName := reg.Pinball.Name + ".ckpt"
	key, err := b.ckptKey(reg.SliceUsed)
	if err != nil {
		return failf(FailInternal, "replay %s: %w", reg.Pinball.Name, err)
	}
	if ck, ok := b.loadCheckpoint(rb, key, ckName); ok {
		pb = ck
	}

	res, err := pinplay.Replay(pb, kernel.New(kernel.NewFS(), b.cfg.Seed), pinplay.ReplayOptions{
		Injection: true,
		Injector:  b.inj,
		Ckpt: &harness.CkptOptions{
			Every:    b.cfg.CkptEvery,
			Name:     ckName,
			Save:     func(ck *pinball.Pinball) error { return b.saveCheckpoint(rb, key, ck) },
			Budget:   b.cfg.ReplayBudget,
			Deadline: b.cfg.ReplayDeadline,
		},
	})
	if err != nil {
		return failf(FailInternal, "replay %s: %w", reg.Pinball.Name, err)
	}
	switch {
	case res.Interrupted:
		// The final checkpoint was saved before Replay returned; the farm
		// retries (RetryIf) and the next attempt resumes from it.
		return failf(FailInterrupted, "replay %s: %w", reg.Pinball.Name, harness.ErrInterrupted)
	case res.Diverged:
		return failf(FailCorruptPinball, "replay %s diverged: %s",
			reg.Pinball.Name, res.DivergeReason)
	case !res.Completed:
		return failf(FailUngracefulExit, "replay %s stopped short of its recorded length",
			reg.Pinball.Name)
	}
	rb.ckpt = nil // the replay is done: nothing left to resume
	return nil
}

// saveCheckpoint persists one mid-run checkpoint on the region cache's
// terms. With a trusted store (useStore) it is chunked into the store under
// key (page-granular dedup, so successive checkpoints of the same replay
// share every unchanged page), where any later run finds it. Otherwise —
// a fault plan is armed, or there is no store — it is kept in memory for
// this build's own retries only, and no other run ever sees it.
func (b *Benchmark) saveCheckpoint(rb *regionBuild, key string, ck *pinball.Pinball) error {
	files, err := ck.FileSet()
	if err != nil {
		return err
	}
	if !b.useStore() {
		rb.ckpt = files
		return nil
	}
	_, err = b.cfg.Store.PutChunked(key, "checkpoint", files, store.DefaultChunkSize)
	return err
}

// loadCheckpoint fetches and validates the region's newest checkpoint from
// wherever saveCheckpoint put it. Any trouble — failed integrity check, not
// actually a checkpoint — degrades to a miss (replay restarts from the
// region pinball) and is tallied in cacheErrs; a damaged checkpoint must
// never be trusted silently.
func (b *Benchmark) loadCheckpoint(rb *regionBuild, key, name string) (*pinball.Pinball, bool) {
	files := rb.ckpt
	if b.useStore() {
		got, _, _, err := b.cfg.Store.Get(key)
		if err != nil {
			b.cacheErrs.Add(1)
		}
		files = got
	}
	if files == nil {
		return nil, false
	}
	ck, err := pinball.ReadFileSet(name, files, pinball.ReadOptions{})
	if err != nil || ck.Meta.Checkpoint == nil || ck.ValidateCheckpoint() != nil {
		b.cacheErrs.Add(1)
		return nil, false
	}
	return ck, true
}
