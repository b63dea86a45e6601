package pinpoints

import (
	"errors"
	"fmt"
	"sync/atomic"

	"elfie/internal/farm"
	"elfie/internal/harness"
	"elfie/internal/pinball"
	"elfie/internal/simpoint"
	"elfie/internal/vm"
)

// regionBuild drives one selected region through the farm: a log → convert
// → lint job chain per attempt, with the serial pipeline's recovery policy
// encoded in the jobs' completion hooks. Attempt 0 captures the primary
// slice (re-logging once when the pinball comes back corrupt); each later
// attempt burns one alternate representative; when every attempt fails the
// region is dropped.
//
// All jobs of one regionBuild are strictly sequential — convert depends on
// log, and the next attempt is submitted only from a finished job's hook —
// so the struct needs no locking: the farm's internal synchronization
// orders every access. Different regions' builds overlap freely, which is
// where the parallelism comes from.
type regionBuild struct {
	b   *Benchmark
	f   *farm.Farm
	idx int // position in the selection, for stable job IDs
	sel simpoint.Region

	// attempt 0 is the primary slice; attempt k>0 is Alternates[k-1].
	attempt int
	// ev is the region's single failure event (nil while healthy). Its
	// Kind/Err always describe the FIRST failure, exactly as the serial
	// pipeline reported; later attempts only update Recovered/Action.
	ev *RegionFailure
	// evWeight is the selection weight to charge when recording ev:
	// zero for a re-logged recovery (no coverage at risk), the region's
	// weight otherwise.
	evWeight float64
	// pb is the current attempt's logged pinball, handed from the log job
	// to the convert job.
	pb *pinball.Pinball
	// reg is the finished region (set by a cache hit or a successful
	// convert, cleared again if lint rejects it); nil means the region was
	// dropped.
	reg *Region
	// fromCache marks reg as a warm store hit: it was linted before it was
	// stored, so the lint stage probes through instead of re-verifying.
	fromCache bool
	// replayM holds the machine of the in-flight checkpointed replay
	// attempt, so the farm's watchdog (wall-clock deadline) can request a
	// cooperative stop from its timer goroutine. Atomic because Interrupt
	// may fire concurrently with Run.
	replayM atomic.Pointer[vm.Machine]
}

// submit enqueues the log → convert → lint job chain for the current
// attempt capturing the given slice.
func (rb *regionBuild) submit(slice int) error {
	k := rb.attempt
	logID := fmt.Sprintf("region%d.a%d.log", rb.idx, k)
	convID := fmt.Sprintf("region%d.a%d.convert", rb.idx, k)
	lintID := fmt.Sprintf("region%d.a%d.lint", rb.idx, k)
	// Claimed now, in submission order, not when the lint job runs: the
	// select job submits every primary in region order, so a one-shot
	// ElfieBitflip hits the same region at any worker count.
	flip := rb.b.claimStubFlip(slice)

	logJob := &farm.Job{
		ID: logID, Stage: "log",
		Probe: func() bool {
			if !rb.b.useStore() {
				return false
			}
			reg, ok := rb.b.loadCachedRegion(rb.sel, slice)
			if ok {
				rb.reg = reg
				rb.fromCache = true
			}
			return ok
		},
		Run: func() error {
			pb, err := rb.b.logSlice(slice)
			if err != nil {
				return err
			}
			rb.pb = pb
			return nil
		},
		OnDone: func(res *farm.Result) { rb.logDone(res) },
	}
	if k == 0 {
		// Storage corruption does not implicate the capture itself: re-log
		// the primary slice once before burning an alternate.
		logJob.Retries = 1
		logJob.RetryIf = func(err error) bool { return FailureOf(err) == FailCorruptPinball }
	}
	if err := rb.b.addJob(rb.f, logJob); err != nil {
		return err
	}
	if err := rb.b.addJob(rb.f, &farm.Job{
		ID: convID, Stage: "convert", Deps: []string{logID},
		Probe: func() bool { return rb.reg != nil },
		Run: func() error {
			reg, err := rb.b.convertRegion(rb.sel, slice, rb.pb)
			if err != nil {
				return err
			}
			rb.reg = reg
			return nil
		},
		OnDone: func(res *farm.Result) { rb.convertDone(res) },
	}); err != nil {
		return err
	}
	if err := rb.b.addJob(rb.f, &farm.Job{
		ID: lintID, Stage: "lint", Deps: []string{convID},
		Probe: func() bool { return rb.fromCache },
		Run: func() error {
			if err := rb.b.lintRegion(rb.reg, flip); err != nil {
				return err
			}
			// With the replay stage armed, caching waits for it: only a
			// region whose ELFie also replays clean may become a warm hit.
			if !rb.b.ckptOn() {
				rb.b.cacheRegion(rb.reg)
			}
			return nil
		},
		OnDone: func(res *farm.Result) { rb.lintDone(res, slice) },
	}); err != nil {
		return err
	}
	if !rb.b.ckptOn() {
		return nil
	}
	// The checkpointed constrained-replay stage: re-execute the region's fat
	// pinball under injection, dropping a resumable checkpoint into the store
	// every CkptEvery instructions. Watchdogs (wall-clock deadline here,
	// instruction budget inside replayRegion) interrupt an overrunning
	// attempt after it checkpoints; the retry resumes from that checkpoint,
	// so work is bounded per attempt but monotone across attempts.
	replayID := fmt.Sprintf("region%d.a%d.replay", rb.idx, k)
	return rb.b.addJob(rb.f, &farm.Job{
		ID: replayID, Stage: "replay", Deps: []string{lintID},
		Probe:    func() bool { return rb.fromCache },
		Retries:  replayRetries,
		RetryIf:  func(err error) bool { return errors.Is(err, harness.ErrInterrupted) },
		Deadline: rb.b.cfg.ReplayDeadline,
		Interrupt: func() {
			if m := rb.replayM.Load(); m != nil {
				m.RequestStop()
			}
		},
		Run:    func() error { return rb.b.replayRegion(rb, replayID) },
		OnDone: func(res *farm.Result) { rb.replayDone(res, slice) },
	})
}

// replayRetries bounds how many watchdog interruptions one replay job
// absorbs before the region is charged a FailInterrupted. Each retry resumes
// from the newest checkpoint, so the bound caps wall time, not progress.
const replayRetries = 8

// logDone handles the log stage's outcome: a failure advances the recovery
// state machine; a success that needed the re-log retry records the
// recovery the way the serial pipeline did (weight 0 — no coverage lost).
func (rb *regionBuild) logDone(res *farm.Result) {
	switch {
	case res.Err != nil:
		first := res.Err
		if len(res.RetryErrs) > 0 {
			first = res.RetryErrs[0]
		}
		rb.fail(first)
	case len(res.RetryErrs) > 0:
		rb.ev = &RegionFailure{
			Cluster: rb.sel.Cluster, Slice: rb.sel.SliceIndex,
			Kind: FailureOf(res.RetryErrs[0]), Err: res.RetryErrs[0],
			Recovered: true, Action: "re-logged",
		}
		rb.evWeight = 0
	}
}

// convertDone handles the convert stage's outcome. A dependency skip means
// logDone already advanced the state machine; an own failure falls through
// to the next alternate (undoing a provisional re-log recovery first).
// Success is not recorded here: the region still has to pass lint, and a
// recovery claimed before verification would leave the accounting wrong if
// the alternate's ELFie turns out broken.
func (rb *regionBuild) convertDone(res *farm.Result) {
	switch {
	case errors.Is(res.Err, farm.ErrDependency):
		// The log stage failed and already advanced recovery.
	case res.Err != nil:
		rb.revertRelog()
		rb.fail(res.Err)
	}
}

// lintDone handles the lint stage's outcome — the end of one attempt. Only
// here does an attempt count as succeeded: a later-attempt success records
// the alternate recovery, and a lint failure discards the converted region
// and advances recovery exactly like a convert failure.
func (rb *regionBuild) lintDone(res *farm.Result, slice int) {
	switch {
	case errors.Is(res.Err, farm.ErrDependency):
		// An earlier stage failed and already advanced recovery.
	case res.Err != nil:
		rb.reg = nil // converted but unverifiable: never merge it
		rb.revertRelog()
		rb.fail(res.Err)
	case rb.attempt > 0 && !rb.b.ckptOn():
		// With the replay stage armed the attempt is not over yet;
		// replayDone records the recovery once the replay passes.
		rb.ev.Recovered = true
		rb.ev.Action = fmt.Sprintf("alternate %d (slice %d)", rb.attempt-1, slice)
		rb.evWeight = rb.sel.Weight
	}
}

// replayDone handles the checkpointed-replay stage's outcome — with the
// stage armed, the true end of an attempt. Failures (divergence, ungraceful
// exit, or an exhausted interrupt budget) degrade exactly like a lint
// failure: the region is discarded and recovery advances to the next
// alternate. The journal keeps the newest checkpoint either way, so a
// -resume run continues an interrupted replay instead of restarting it.
func (rb *regionBuild) replayDone(res *farm.Result, slice int) {
	switch {
	case errors.Is(res.Err, farm.ErrDependency):
		// An earlier stage failed and already advanced recovery.
	case res.Err != nil:
		rb.reg = nil
		rb.revertRelog()
		rb.fail(res.Err)
	case rb.attempt > 0:
		rb.ev.Recovered = true
		rb.ev.Action = fmt.Sprintf("alternate %d (slice %d)", rb.attempt-1, slice)
		rb.evWeight = rb.sel.Weight
	}
}

// revertRelog undoes a provisional re-log recovery when the re-logged
// capture failed a later stage: the event reverts to unrecovered and
// alternates take over.
func (rb *regionBuild) revertRelog() {
	if rb.ev != nil && rb.ev.Action == "re-logged" {
		rb.ev.Recovered, rb.ev.Action = false, ""
		rb.evWeight = rb.sel.Weight
	}
}

// fail records the first failure (Kind/Err are never overwritten) and
// either submits the next alternate's job pair or marks the region dropped.
func (rb *regionBuild) fail(err error) {
	if rb.ev == nil {
		rb.ev = &RegionFailure{
			Cluster: rb.sel.Cluster, Slice: rb.sel.SliceIndex,
			Kind: FailureOf(err), Err: err,
		}
		rb.evWeight = rb.sel.Weight
	}
	if rb.attempt < len(rb.sel.Alternates) {
		rb.attempt++
		if aerr := rb.submit(rb.sel.Alternates[rb.attempt-1]); aerr == nil {
			return
		}
	}
	rb.ev.Action = "dropped"
}
