package farm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 42}

	// Deterministic: same (job, attempt) always yields the same delay.
	for attempt := 1; attempt <= 8; attempt++ {
		if d1, d2 := b.Delay("job-a", attempt), b.Delay("job-a", attempt); d1 != d2 {
			t.Fatalf("attempt %d: non-deterministic delay %v vs %v", attempt, d1, d2)
		}
	}
	// Jittered apart: two jobs failing at the same attempt wait differently.
	if b.Delay("job-a", 1) == b.Delay("job-b", 1) {
		t.Error("identical delays for different jobs — no per-job jitter")
	}
	// Growth: attempt 3 nominally 40ms, attempt 1 nominally 10ms; even with
	// ±25% jitter the ordering holds.
	if !(b.Delay("job-a", 3) > b.Delay("job-a", 1)) {
		t.Error("backoff does not grow")
	}
	// Cap: far attempts never exceed Max * (1 + Jitter/2).
	limit := time.Duration(float64(b.Max) * 1.26)
	for attempt := 5; attempt <= 40; attempt++ {
		if d := b.Delay("job-a", attempt); d > limit {
			t.Fatalf("attempt %d: delay %v blows past cap %v", attempt, d, b.Max)
		}
	}
	// Nil policy: no delays.
	var nilB *Backoff
	if nilB.Delay("x", 3) != 0 || nilB.wait("x", 3) != 0 {
		t.Error("nil backoff produced a delay")
	}
}

func TestFarmBackoffAccounting(t *testing.T) {
	f := New(2)
	var slept []time.Duration
	f.SetBackoff(&Backoff{
		Base: 4 * time.Millisecond, Max: 32 * time.Millisecond, Seed: 7,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	fails := 3
	err := f.Add(&Job{
		ID: "flaky", Stage: "region", Retries: 5,
		RetryIf: func(error) bool { return true },
		Run: func() error {
			if fails > 0 {
				fails--
				return errors.New("transient")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := f.Run()
	r := out.Results["flaky"]
	if r.Err != nil || r.Attempts != 4 {
		t.Fatalf("result: err=%v attempts=%d", r.Err, r.Attempts)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	var total time.Duration
	for _, d := range slept {
		total += d
	}
	if r.Backoff != total {
		t.Errorf("job backoff %v != slept %v", r.Backoff, total)
	}
	if got := out.Counters.Stage("region").Backoff; got != total {
		t.Errorf("stage backoff %v != slept %v", got, total)
	}
}

func TestJournalReplayAndCrashDebris(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	must := func(r Record) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	must(Record{Job: "a", Stage: "log", Event: EvStart, Attempt: 1})
	must(Record{Job: "a", Stage: "log", Event: EvCkpt, Ckpt: "ckpt/a/1"})
	must(Record{Job: "a", Stage: "log", Event: EvCkpt, Ckpt: "ckpt/a/2"})
	must(Record{Job: "a", Stage: "log", Event: EvDone, Attempt: 1})
	must(Record{Job: "b", Stage: "log", Event: EvStart, Attempt: 1})
	must(Record{Job: "b", Stage: "log", Event: EvCkpt, Ckpt: "ckpt/b/1"})
	j.Close()

	// Simulate dying mid-append: a torn trailing record.
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.WriteString(`{"seq":7,"job":"b","event":"do`)
	fh.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Done("a") {
		t.Error("completed job lost on replay")
	}
	if j2.Done("b") {
		t.Error("torn record counted as done")
	}
	if got := j2.Checkpoint("a"); got != "ckpt/a/2" {
		t.Errorf("newest checkpoint for a = %q, want ckpt/a/2", got)
	}
	if got := j2.Checkpoint("b"); got != "ckpt/b/1" {
		t.Errorf("checkpoint for interrupted b = %q, want ckpt/b/1", got)
	}
	if n := len(j2.Records()); n != 6 {
		t.Errorf("replayed %d records, want 6", n)
	}
	// Appends after replay extend a clean file with continuing sequence.
	if err := j2.Append(Record{Job: "b", Event: EvDone, Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	recs := j2.Records()
	if last := recs[len(recs)-1]; last.Seq != 7 {
		t.Errorf("post-replay seq = %d, want 7", last.Seq)
	}

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if !j3.Done("b") {
		t.Error("post-crash append lost")
	}
}

func TestAddJournaledSkipsDoneOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var ran atomic.Int32

	addAll := func(f *Farm, jr *Journal, failC bool) {
		for _, id := range []string{"a", "b", "c"} {
			id := id
			err := f.AddJournaled(jr, &Job{
				ID: id, Stage: "work",
				Run: func() error {
					ran.Add(1)
					if id == "c" && failC {
						return errors.New("boom")
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Leg 1: a and b succeed, c fails.
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	f := New(2)
	addAll(f, jr, true)
	out := f.Run()
	jr.Close()
	if out.Counters.Failed != 1 || out.Counters.Run != 2 || ran.Load() != 3 {
		t.Fatalf("leg 1: %s ran=%d", out.Counters.String(), ran.Load())
	}

	// Leg 2 (the resume): only c runs; a and b are journal hits.
	ran.Store(0)
	jr2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	f2 := New(2)
	addAll(f2, jr2, false)
	out2 := f2.Run()
	if out2.Counters.Cached != 2 || out2.Counters.Run != 1 || ran.Load() != 1 {
		t.Fatalf("resume: %s ran=%d (completed jobs re-done)", out2.Counters.String(), ran.Load())
	}
	// Leg 3: everything is a hit, zero work.
	ran.Store(0)
	jr3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	f3 := New(2)
	addAll(f3, jr3, false)
	out3 := f3.Run()
	if out3.Counters.Cached != 3 || ran.Load() != 0 {
		t.Fatalf("warm resume: %s ran=%d", out3.Counters.String(), ran.Load())
	}
}

func TestJournalCrashAfterStopsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.CrashAfter = 3
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, jr.Append(Record{Job: fmt.Sprintf("j%d", i), Event: EvDone}))
	}
	jr.Close()
	for i, err := range errs {
		if i < 3 && err != nil {
			t.Errorf("append %d failed early: %v", i, err)
		}
		if i >= 3 && !errors.Is(err, ErrCrashed) {
			t.Errorf("append %d after crash point: %v", i, err)
		}
	}
	jr2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if n := len(jr2.Records()); n != 3 {
		t.Errorf("replayed %d records, want the 3 pre-crash ones", n)
	}
}
