// Package farm is the checkpoint pipeline's job scheduler: a bounded
// worker pool that runs jobs FIFO in submission order. Ordering between
// jobs is expressed by submission, not by declared dependencies: a job
// that must follow another is submitted from the earlier job's OnDone (or
// Run), which is how the PinPoints flow (profile → SimPoint selection →
// per-region log → convert → lint) chains its stages.
//
// The scheduler is deliberately small and deterministic-friendly:
//
//   - Jobs dispatch FIFO in submission order, so a one-worker farm executes
//     exactly the serial order and more workers only overlap independent
//     jobs.
//   - Results are keyed by job ID, never by completion order: callers merge
//     them in their own deterministic order, which is what makes pipeline
//     output byte-identical regardless of worker count.
//   - A job may consult a cache first (Probe); cache hits skip Run entirely
//     and are counted separately, so "the warm re-run did zero work" is
//     provable from the counters.
//   - Failed jobs retry (bounded by Retries, delayed by the Backoff policy)
//     when RetryIf classifies the error as retryable — e.g. a corrupt
//     pinball read that a re-log fixes, or a replay attempt its own bounds
//     interrupted after checkpointing. Bounding an attempt is the job's
//     business: the farm never stops a running Run.
//
// Jobs may submit further jobs while running (Add is safe during Run and
// from OnDone), which is how "select regions" fans out into per-region
// work the moment the selection is known.
package farm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Job is one schedulable unit of work.
type Job struct {
	// ID uniquely names the job within one farm.
	ID string
	// Stage groups jobs for counters and wall-time accounting
	// ("profile", "region", "measure", ...).
	Stage string
	// Probe, when non-nil, is consulted before Run: returning true means
	// the job's outcome is already available (a cache hit) and Run is
	// skipped.
	Probe func() bool
	// Run does the work. Required unless Probe always hits.
	Run func() error
	// Retries bounds how many times a failed Run is re-attempted.
	Retries int
	// RetryIf classifies an error as retryable; nil means never retry.
	RetryIf func(error) bool
	// OnDone, when non-nil, runs on the worker after the job's result is
	// final and before the job counts as finished, so a follow-up job it
	// submits (the next stage, a recovery path, fan-out) keeps the farm
	// running.
	OnDone func(*Result)
}

// Result is one job's outcome.
type Result struct {
	ID    string
	Stage string
	// Err is nil on success.
	Err error
	// Cached reports the job was satisfied by Probe without running.
	Cached bool
	// Attempts is the number of Run invocations (0 for cached jobs).
	Attempts int
	// RetryErrs holds the errors of failed attempts that were retried,
	// in order — callers reconstruct recovery narratives from them.
	RetryErrs []error
	// Wall is the total time spent in Probe and Run attempts.
	Wall time.Duration
	// Backoff is the total retry delay this job waited (see Farm.SetBackoff).
	Backoff time.Duration
}

// StageStats aggregates counters for one stage.
type StageStats struct {
	Jobs    int
	Run     int // jobs that executed Run successfully
	Cached  int // jobs satisfied by Probe
	Retried int // individual retry attempts
	Failed  int // jobs whose final attempt failed
	// Wall is the summed busy time of the stage's jobs (not elapsed time:
	// with N workers the stage's elapsed time can be Wall/N).
	Wall time.Duration
	// Backoff is the summed retry delay of the stage's jobs.
	Backoff time.Duration
}

// Counters aggregates scheduler activity, totalled and per stage.
type Counters struct {
	Jobs, Run, Cached, Retried, Failed int
	Stages                             map[string]StageStats
}

func (c *Counters) String() string {
	return fmt.Sprintf("jobs=%d run=%d cached=%d retried=%d failed=%d",
		c.Jobs, c.Run, c.Cached, c.Retried, c.Failed)
}

// Outcome is a completed farm run.
type Outcome struct {
	// Results maps job ID to its result, for deterministic merging.
	Results  map[string]*Result
	Counters Counters
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

// Farm schedules jobs over a bounded worker pool.
type Farm struct {
	workers int
	backoff *Backoff

	mu      sync.Mutex
	cond    *sync.Cond
	ids     map[string]bool // every submitted job ID
	ready   []*Job          // FIFO queue, submission order
	results map[string]*Result
	pending int // submitted, not yet finished
}

// New builds a farm with the given worker count; workers <= 0 means
// GOMAXPROCS.
func New(workers int) *Farm {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := &Farm{
		workers: workers,
		ids:     make(map[string]bool),
		results: make(map[string]*Result),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Workers returns the farm's worker-pool size.
func (f *Farm) Workers() int { return f.workers }

// SetBackoff installs a retry-delay policy applied between failed attempts
// of every job (nil disables delays, the default). Call before Run.
func (f *Farm) SetBackoff(b *Backoff) { f.backoff = b }

// Add submits a job. It is safe to call from inside a running job or its
// OnDone, which is how one pipeline stage hands over to the next.
func (f *Farm) Add(j *Job) error {
	if j.ID == "" {
		return errors.New("farm: job needs an ID")
	}
	if j.Run == nil && j.Probe == nil {
		return fmt.Errorf("farm: job %s has no work", j.ID)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ids[j.ID] {
		return fmt.Errorf("farm: duplicate job ID %q", j.ID)
	}
	f.ids[j.ID] = true
	f.pending++
	f.ready = append(f.ready, j)
	f.cond.Broadcast()
	return nil
}

// Run executes all submitted jobs (including ones submitted while running)
// and returns when every job has a result. Job failures are reported in the
// outcome.
func (f *Farm) Run() *Outcome {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.work()
		}()
	}
	wg.Wait()

	f.mu.Lock()
	defer f.mu.Unlock()
	out := &Outcome{
		Results: f.results,
		Elapsed: time.Since(start),
		Counters: Counters{
			Jobs:   len(f.results),
			Stages: make(map[string]StageStats),
		},
	}
	for _, r := range f.results {
		ss := out.Counters.Stages[r.Stage]
		ss.Jobs++
		ss.Wall += r.Wall
		ss.Backoff += r.Backoff
		ss.Retried += len(r.RetryErrs)
		out.Counters.Retried += len(r.RetryErrs)
		switch {
		case r.Cached:
			ss.Cached++
			out.Counters.Cached++
		case r.Err != nil:
			ss.Failed++
			out.Counters.Failed++
		default:
			ss.Run++
			out.Counters.Run++
		}
		out.Counters.Stages[r.Stage] = ss
	}
	return out
}

// work is one worker's loop: pop the oldest queued job, execute, repeat,
// until no work remains or can appear.
func (f *Farm) work() {
	for {
		f.mu.Lock()
		for len(f.ready) == 0 && f.pending > 0 {
			f.cond.Wait()
		}
		if len(f.ready) == 0 {
			// pending == 0: everything is finished; wake the others so
			// they observe it too.
			f.cond.Broadcast()
			f.mu.Unlock()
			return
		}
		job := f.ready[0]
		f.ready = f.ready[1:]
		f.mu.Unlock()

		res := f.execute(job)
		if job.OnDone != nil {
			job.OnDone(res)
		}

		f.mu.Lock()
		f.results[job.ID] = res
		f.pending--
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// execute runs one job outside the lock: probe, then bounded retries.
func (f *Farm) execute(job *Job) *Result {
	res := &Result{ID: job.ID, Stage: job.Stage}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	if job.Probe != nil && safeProbe(job, res) {
		res.Cached = true
		return res
	}
	if job.Run == nil {
		res.Err = fmt.Errorf("farm: job %s: probe missed and no Run", job.ID)
		return res
	}
	for {
		res.Attempts++
		err := safeRun(job)
		if err == nil {
			res.Err = nil
			return res
		}
		res.Err = err
		if res.Attempts > job.Retries || job.RetryIf == nil || !job.RetryIf(err) {
			return res
		}
		res.RetryErrs = append(res.RetryErrs, err)
		res.Backoff += f.backoff.wait(job.ID, res.Attempts)
	}
}

// safeRun invokes Run, converting a panic into an error so one bad job
// cannot take down the worker pool.
func safeRun(job *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("farm: job %s panicked: %v", job.ID, r)
		}
	}()
	return job.Run()
}

func safeProbe(job *Job, res *Result) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			hit = false
		}
	}()
	return job.Probe()
}

// Stage returns one stage's counters, nil-map safe: asking about a stage
// that never ran yields zero stats, so callers can assert on stage activity
// without guarding the map.
func (c *Counters) Stage(name string) StageStats {
	return c.Stages[name]
}

// SortedStages returns the counter's stage names in stable order.
func (c *Counters) SortedStages() []string {
	stages := make([]string, 0, len(c.Stages))
	for s := range c.Stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	return stages
}
