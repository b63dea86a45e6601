package farm

import (
	"errors"
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
