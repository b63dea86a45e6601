package farm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSerialOrderWithOneWorker(t *testing.T) {
	// One worker runs jobs in submission order, and a job submitted from
	// another's OnDone queues behind everything already submitted.
	f := New(1)
	var mu sync.Mutex
	var order []string
	var job func(id string, then ...string) *Job
	job = func(id string, then ...string) *Job {
		j := &Job{ID: id, Stage: "s", Run: func() error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}}
		if len(then) > 0 {
			j.OnDone = func(*Result) {
				if err := f.Add(job(then[0], then[1:]...)); err != nil {
					t.Error(err)
				}
			}
		}
		return j
	}
	for _, j := range []*Job{job("a", "c", "d"), job("b")} {
		if err := f.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if out.Counters.Run != 4 || out.Counters.Failed != 0 {
		t.Errorf("counters: %s", &out.Counters)
	}
}

func TestWorkerPoolBound(t *testing.T) {
	const workers = 3
	f := New(workers)
	var cur, peak atomic.Int32
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := f.Add(&Job{ID: id, Stage: "s", Run: func() error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("concurrency peak %d > %d workers", p, workers)
	}
}

func TestRetryClassification(t *testing.T) {
	retryable := errors.New("transient")
	fatal := errors.New("fatal")
	isRetryable := func(err error) bool { return errors.Is(err, retryable) }

	f := New(2)
	attempts := 0
	if err := f.Add(&Job{ID: "flaky", Stage: "s", Retries: 2, RetryIf: isRetryable,
		Run: func() error {
			attempts++
			if attempts < 3 {
				return retryable
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(&Job{ID: "hard", Stage: "s", Retries: 5, RetryIf: isRetryable,
		Run: func() error { return fatal }}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := out.Results["flaky"]
	if r.Err != nil || r.Attempts != 3 || len(r.RetryErrs) != 2 {
		t.Errorf("flaky: %+v", r)
	}
	r = out.Results["hard"]
	if !errors.Is(r.Err, fatal) || r.Attempts != 1 {
		t.Errorf("hard: err=%v attempts=%d (non-retryable must not retry)", r.Err, r.Attempts)
	}
	if out.Counters.Retried != 2 {
		t.Errorf("retried counter = %d", out.Counters.Retried)
	}
}

func TestProbeCacheHit(t *testing.T) {
	f := New(2)
	ran := false
	if err := f.Add(&Job{ID: "cached", Stage: "region",
		Probe: func() bool { return true },
		Run:   func() error { ran = true; return nil }}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(&Job{ID: "cold", Stage: "region",
		Probe: func() bool { return false },
		Run:   func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cache hit still ran the job")
	}
	ss := out.Counters.Stages["region"]
	if ss.Cached != 1 || ss.Run != 1 || ss.Jobs != 2 {
		t.Errorf("stage counters: %+v", ss)
	}
}

func TestDynamicSubmission(t *testing.T) {
	// A stage-1 job fans out into stage-2 jobs while the farm is running —
	// the profile → select → regions shape.
	f := New(4)
	var fanned atomic.Int32
	if err := f.Add(&Job{ID: "select", Stage: "select", Run: func() error {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("region%d", i)
			if err := f.Add(&Job{ID: id, Stage: "region", Run: func() error {
				fanned.Add(1)
				return nil
			}}); err != nil {
				return err
			}
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fanned.Load() != 10 {
		t.Errorf("fanned %d/10", fanned.Load())
	}
	if out.Counters.Jobs != 11 || out.Counters.Run != 11 {
		t.Errorf("counters: %s", &out.Counters)
	}
	if out.Counters.Stages["region"].Wall <= 0 {
		t.Error("no wall time recorded for region stage")
	}
}

func TestAddValidation(t *testing.T) {
	f := New(1)
	if err := f.Add(&Job{ID: "a", Stage: "s", Run: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(&Job{ID: "a", Stage: "s", Run: func() error { return nil }}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := f.Add(&Job{ID: "", Stage: "s", Run: func() error { return nil }}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := f.Add(&Job{ID: "c", Stage: "s"}); err == nil {
		t.Error("job without work accepted")
	}
}

func TestParallelWallClock(t *testing.T) {
	// Independent jobs must overlap: 8 jobs of ~20ms each take ~160ms on
	// one worker and ~20ms on eight. Sleeps (not CPU) make this hold even
	// on a single-core machine. The generous threshold (half the serial
	// time) keeps the test robust under scheduler noise.
	const jobs, naplen = 8, 20 * time.Millisecond
	elapsed := func(workers int) time.Duration {
		f := New(workers)
		for i := 0; i < jobs; i++ {
			if err := f.Add(&Job{ID: fmt.Sprintf("j%d", i), Stage: "s",
				Run: func() error { time.Sleep(naplen); return nil }}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out.Elapsed
	}
	serial := elapsed(1)
	parallel := elapsed(jobs)
	t.Logf("wall-clock: -j 1 %v, -j %d %v", serial, jobs, parallel)
	if parallel >= serial/2 {
		t.Errorf("-j %d (%v) did not beat -j 1 (%v)", jobs, parallel, serial)
	}
}

func TestPanicContained(t *testing.T) {
	f := New(2)
	if err := f.Add(&Job{ID: "bomb", Stage: "s",
		Run: func() error { panic("kaboom") }}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(&Job{ID: "ok", Stage: "s", Run: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Results["bomb"]; r.Err == nil {
		t.Error("panic not converted to error")
	}
	if r := out.Results["ok"]; r.Err != nil {
		t.Errorf("sibling damaged by panic: %v", r.Err)
	}
}
