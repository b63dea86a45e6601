package pinpoints

import (
	"errors"
	"fmt"

	"elfie/internal/farm"
	"elfie/internal/harness"
	"elfie/internal/pinball"
	"elfie/internal/simpoint"
	"elfie/internal/store"
)

// regionBuild drives one region through the farm as a chain of attempts,
// one per slice in slices. An attempt is a table of stage jobs — log,
// convert, lint, plus replay when the checkpointed-replay stage is armed —
// and every stage's OnDone does one of two things: on success it submits
// the next stage, on failure it calls fail, which starts the next attempt
// or drops the region. Attempt 0 re-logs its slice once when the pinball
// comes back corrupt. Prepare tries a region's primary slice and then its
// alternates; validation builds one alternate per chain.
//
// The jobs of one regionBuild run strictly one after another — each is
// submitted only from its predecessor's OnDone — so the struct needs no
// locking: the farm's internal synchronization orders every access.
// Different regions' builds overlap freely, which is where the parallelism
// comes from.
type regionBuild struct {
	b  *Benchmark
	f  *farm.Farm
	id string // job ID prefix, e.g. "region3"
	// sel is the region's selection identity, attached to the built Region.
	sel simpoint.Region
	// slices lists the slices to try, in order: attempt k captures
	// slices[k].
	slices  []int
	attempt int
	// ev is the region's single failure event (nil while healthy). Its
	// Kind/Err always describe the FIRST failure; the attempt that
	// succeeds, if any, marks it recovered.
	ev *RegionFailure
	// evWeight is the selection weight to charge when recording ev:
	// zero for a re-logged recovery (no coverage at risk), the region's
	// weight otherwise.
	evWeight float64
	// pb is the current attempt's logged pinball, handed from the log job
	// to the convert job.
	pb *pinball.Pinball
	// reg is the current attempt's region (set by a cache hit or a
	// successful convert, cleared when the attempt fails); after the farm
	// run, nil means the region was dropped.
	reg *Region
	// fromCache marks reg as a warm store hit: it passed every stage before
	// it was stored, so the later stages probe through instead of re-running.
	fromCache bool
	// ckpt holds the newest checkpoint of this build's replay while the
	// store is not trusted (see saveCheckpoint), for its retries to resume
	// from.
	ckpt store.FileSet
}

// submit starts the current attempt: it builds the attempt's stage table
// and submits its first stage.
func (rb *regionBuild) submit() error {
	b, k, slice := rb.b, rb.attempt, rb.slices[rb.attempt]
	rb.ckpt = nil // an in-memory checkpoint belongs to one attempt's slice
	id := func(stage string) string { return fmt.Sprintf("%s.a%d.%s", rb.id, k, stage) }
	cached := func() bool { return rb.fromCache }
	// Claimed now, in submission order, not when the lint job runs: the
	// select job submits every primary in region order, so a one-shot
	// ElfieBitflip hits the same region at any worker count.
	flip := b.claimStubFlip(slice)

	chain := []*farm.Job{{
		ID: id("log"), Stage: "log",
		Probe: func() bool {
			if !b.useStore() {
				return false
			}
			reg, ok := b.loadCachedRegion(rb.sel, slice)
			if ok {
				rb.reg = reg
				rb.fromCache = true
			}
			return ok
		},
		Run: func() (err error) {
			rb.pb, err = b.logSlice(slice)
			return err
		},
	}, {
		ID: id("convert"), Stage: "convert", Probe: cached,
		Run: func() (err error) {
			rb.reg, err = b.convertRegion(rb.sel, slice, rb.pb)
			return err
		},
	}, {
		ID: id("lint"), Stage: "lint", Probe: cached,
		Run: func() error { return b.lintRegion(rb.reg, flip) },
	}}
	if k == 0 {
		// Storage corruption does not implicate the capture itself: re-log
		// the first slice once before burning an alternate.
		chain[0].Retries = 1
		chain[0].RetryIf = func(err error) bool { return FailureOf(err) == FailCorruptPinball }
	}
	if b.ckptOn() {
		// The checkpointed constrained-replay stage: re-execute the region's
		// fat pinball under injection, dropping a resumable checkpoint into
		// the store every CkptEvery instructions. The attempt's deadline and
		// instruction budget (enforced by the harness run loop) interrupt an
		// overrunning attempt after it checkpoints; the retry resumes from
		// that checkpoint, so work is bounded per attempt but monotone across
		// attempts.
		chain = append(chain, &farm.Job{
			ID: id("replay"), Stage: "replay", Probe: cached,
			Retries: replayRetries,
			RetryIf: func(err error) bool { return errors.Is(err, harness.ErrInterrupted) },
			Run:     func() error { return b.replayRegion(rb) },
		})
	}
	// The last stage's Run is where an attempt succeeds, so only a region
	// that passed every stage is cached, and the store write counts in
	// that stage's wall time.
	last := chain[len(chain)-1]
	run := last.Run
	last.Run = func() error {
		if err := run(); err != nil {
			return err
		}
		b.cacheRegion(rb.reg)
		return nil
	}
	for i, job := range chain {
		next := chain[i+1:]
		job.OnDone = func(res *farm.Result) { rb.done(res, next) }
	}
	return rb.f.Add(chain[0])
}

// replayRetries bounds how many budget or deadline interruptions one replay
// job absorbs before the region is charged a FailInterrupted. Each retry
// resumes from the newest checkpoint, so the bound caps wall time, not
// progress.
const replayRetries = 8

// done is every stage's OnDone. A failure advances recovery; a success
// submits the next stage, and the last stage's success ends the build,
// marking an earlier failure recovered.
func (rb *regionBuild) done(res *farm.Result, next []*farm.Job) {
	if res.Stage == "log" && len(res.RetryErrs) > 0 {
		// A re-logged capture is a failure even when the re-log works:
		// it is recorded (at weight 0) if the attempt goes on to succeed.
		// Replay retries are not failures: each resumes from a checkpoint.
		rb.noteFailure(res.RetryErrs[0])
	}
	switch {
	case res.Err != nil:
		rb.fail(res.Err)
	case len(next) > 0:
		if err := rb.f.Add(next[0]); err != nil {
			rb.fail(err)
		}
	case rb.ev != nil && rb.attempt == 0:
		rb.ev.Recovered, rb.ev.Action = true, "re-logged"
		rb.evWeight = 0
	case rb.ev != nil:
		rb.ev.Recovered = true
		rb.ev.Action = fmt.Sprintf("alternate %d (slice %d)", rb.attempt-1, rb.slices[rb.attempt])
	}
}

// noteFailure records err as the region's failure unless one is recorded
// already: Kind/Err always describe the first failure.
func (rb *regionBuild) noteFailure(err error) {
	if rb.ev == nil {
		rb.ev = &RegionFailure{
			Cluster: rb.sel.Cluster, Slice: rb.sel.SliceIndex,
			Kind: FailureOf(err), Err: err,
		}
		rb.evWeight = rb.sel.Weight
	}
}

// fail ends the current attempt: it records the failure, discards the
// attempt's region, and either starts the next attempt or marks the region
// dropped.
func (rb *regionBuild) fail(err error) {
	rb.noteFailure(err)
	rb.reg = nil
	if rb.attempt+1 < len(rb.slices) {
		rb.attempt++
		if rb.submit() == nil {
			return
		}
	}
	rb.ev.Action = "dropped"
}
