package pinpoints

// The checkpointed constrained-replay stage ("replay" in the farm) is where
// live mid-run checkpointing meets the pipeline: each region's fat pinball
// is re-executed under injection, dropping a resumable checkpoint pinball
// into the artifact store every Config.CkptEvery retired instructions and
// journaling its store key. Two watchdogs bound each attempt — the farm's
// wall-clock deadline (Config.ReplayDeadline) and an instruction budget
// (Config.ReplayBudget) — and both stop the machine cooperatively, so the
// interrupted attempt checkpoints before it returns and the retry (or a
// later -resume invocation) continues from exactly where it stopped.

import (
	"fmt"

	"elfie/internal/farm"
	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/pin"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/store"
	"elfie/internal/vm"
)

// replayRegion is the Run body of one replay-stage attempt. It resumes from
// the job's newest journaled checkpoint when one exists (otherwise it starts
// from the region's pinball), replays with injection, and classifies the
// outcome into the pipeline's failure taxonomy.
func (b *Benchmark) replayRegion(rb *regionBuild, jobID string) error {
	reg := rb.reg
	pb := reg.Pinball
	ckName := reg.Pinball.Name + ".ckpt"

	if b.jr != nil {
		if ck, ok := b.loadCheckpoint(b.jr.Checkpoint(jobID), ckName); ok {
			pb = ck
		}
	}

	res, err := pinplay.Replay(pb, kernel.New(kernel.NewFS(), b.cfg.Seed), pinplay.ReplayOptions{
		Injection: true,
		Injector:  b.inj,
		Ckpt: &harness.CkptOptions{
			Every: b.cfg.CkptEvery,
			Name:  ckName,
			Save:  func(ck *pinball.Pinball) error { return b.saveCheckpoint(jobID, ck) },
		},
		BeforeRun: func(m *vm.Machine) {
			// Publish the machine so the farm's wall-clock watchdog can
			// RequestStop it from the timer goroutine.
			rb.replayM.Store(m)
			b.armReplayBudget(m)
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
	return nil
}

// armReplayBudget installs the instruction-budget watchdog: after
// Config.ReplayBudget instructions retire in this attempt, the machine is
// asked to stop (checkpoint-then-interrupt), bounding work per attempt while
// the checkpoint keeps progress monotone across attempts.
func (b *Benchmark) armReplayBudget(m *vm.Machine) {
	budget := b.cfg.ReplayBudget
	if budget == 0 {
		return
	}
	var retired uint64
	pin.NewEngine(m).Attach(&pin.Tool{
		Name: "replay-budget",
		OnIns: func(t *vm.Thread, pc uint64, ins isa.Inst) {
			retired++
			if retired == budget {
				m.RequestStop()
			}
		},
	})
}

// saveCheckpoint persists one mid-run checkpoint: chunked into the store
// (page-granular dedup, so successive checkpoints of the same replay share
// every unchanged page) and then journaled, in that order — a journaled key
// always names a durable object. Without a store the checkpoint is dropped:
// an in-memory run has nowhere durable to resume from anyway.
func (b *Benchmark) saveCheckpoint(jobID string, ck *pinball.Pinball) error {
	if b.cfg.Store == nil {
		return nil
	}
	files, err := ck.FileSet()
	if err != nil {
		return err
	}
	// RegionStartIcount accumulates across resume legs, so it is a monotone
	// progress marker: later checkpoints of the same job sort after earlier
	// ones and never collide with them.
	key := fmt.Sprintf("ckpt/%s/%d", jobID, ck.Meta.RegionStartIcount)
	if _, err := b.cfg.Store.PutChunked(key, "checkpoint", files, store.DefaultChunkSize); err != nil {
		return err
	}
	if b.jr != nil {
		return b.jr.Append(farm.Record{Job: jobID, Stage: "replay", Event: farm.EvCkpt, Ckpt: key})
	}
	return nil
}

// loadCheckpoint fetches and validates a journaled checkpoint pinball. Any
// trouble — missing key, failed integrity check, not actually a checkpoint —
// degrades to a miss (replay restarts from the region pinball) and is tallied
// in cacheErrs; a damaged checkpoint must never be trusted silently.
func (b *Benchmark) loadCheckpoint(key, name string) (*pinball.Pinball, bool) {
	if b.cfg.Store == nil || key == "" {
		return nil, false
	}
	files, _, ok, err := b.cfg.Store.Get(key)
	if err != nil {
		b.cacheErrs.Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	ck, err := pinball.ReadFileSet(name, files, pinball.ReadOptions{})
	if err != nil || ck.Meta.Checkpoint == nil || ck.ValidateCheckpoint() != nil {
		b.cacheErrs.Add(1)
		return nil, false
	}
	return ck, true
}
