package elfie_test

import (
	"bytes"
	"sync"
	"testing"

	"elfie/internal/bbv"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pinplay"
	"elfie/internal/pinpoints"
	"elfie/internal/workloads"
)

// guardSession builds the vmguard reference workload as a harness session —
// the same machine guardMachine hand-assembles, composed declaratively.
func guardSession(t *testing.T, mode harness.Mode, seed int64) *harness.Session {
	t.Helper()
	r := trim(workloads.TrainIntRate()[1], 3)
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	fs := kernel.NewFS()
	if r.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	s, err := harness.New(harness.Config{
		Mode: mode, Exe: exe, Argv: []string{r.Name},
		FS: fs, Seed: seed, Budget: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHarnessMatchesHandAssembly pins the refactor's central claim: a
// harness-composed session is state-for-state the machine the old
// hand-assembled construction produced — identical instruction stream,
// registers, and BBV profile.
func TestHarnessMatchesHandAssembly(t *testing.T) {
	hand := guardMachine(t, 1)
	ph, err := bbv.Collect(hand, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	sess := guardSession(t, harness.ModeMeasure, 1)
	ps, err := bbv.CollectSession(sess, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if summarize(hand) != summarize(sess.Machine) {
		t.Errorf("harness session diverges from hand assembly:\nhand    %+v\nharness %+v",
			summarize(hand), summarize(sess.Machine))
	}
	if hand.Threads[0].Regs.GPR != sess.Machine.Threads[0].Regs.GPR {
		t.Error("final registers diverge")
	}
	if !bytes.Equal(marshalProfile(ph), marshalProfile(ps)) {
		t.Error("BBV profiles diverge")
	}
}

// TestHarnessLoggerBytesIdentical: two independent harness log sessions at
// the same seed must capture byte-identical pinballs.
func TestHarnessLoggerBytesIdentical(t *testing.T) {
	capture := func() map[string][]byte {
		s := guardSession(t, harness.ModeLog, 1)
		pb, err := pinplay.Log(s.Machine, pinplay.LogOptions{
			Name: "equiv.r1", RegionStart: 150_000, RegionLength: 400_000,
		}.Fat())
		if err != nil {
			t.Fatal(err)
		}
		files, err := pb.FileSet()
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b := capture(), capture()
	if len(a) != len(b) {
		t.Fatalf("file sets differ in size: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("pinball file %s differs between identical captures", name)
		}
	}
}

// TestHarnessReplayStreamIdentity: constrained replay through the harness
// executes the identical instruction stream every time, and completes the
// recorded region exactly.
func TestHarnessReplayStreamIdentity(t *testing.T) {
	s := guardSession(t, harness.ModeLog, 1)
	pb, err := pinplay.Log(s.Machine, pinplay.LogOptions{
		Name: "equiv.r2", RegionStart: 150_000, RegionLength: 400_000,
	}.Fat())
	if err != nil {
		t.Fatal(err)
	}

	replay := func() (runSummary, bool) {
		res, err := pinplay.Replay(pb, kernel.New(kernel.NewFS(), 0), pinplay.ReplayOptions{
			Injection: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Diverged {
			t.Fatalf("replay diverged: %s", res.DivergeReason)
		}
		for tid, n := range res.PerThread {
			if n != pb.Meta.RegionLength[tid] {
				t.Errorf("thread %d retired %d, recorded %d", tid, n, pb.Meta.RegionLength[tid])
			}
		}
		return summarize(res.Machine), res.Completed
	}
	sa, ca := replay()
	sb, cb := replay()
	if !ca || !cb {
		t.Error("replay did not complete the recorded region")
	}
	if sa != sb {
		t.Errorf("replay streams diverge:\nfirst  %+v\nsecond %+v", sa, sb)
	}
}

// TestHarnessResetTrialsByteIdentical: a Reset-reused session must reproduce
// a fresh session bit for bit — same stream, registers, and BBV bytes.
func TestHarnessResetTrialsByteIdentical(t *testing.T) {
	s := guardSession(t, harness.ModeMeasure, 1)
	p1, err := bbv.CollectSession(s, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	first := summarize(s.Machine)
	firstGPR := s.Machine.Threads[0].Regs.GPR

	// Intervening trial at another seed, then rewind to the original.
	if err := s.Reset(42); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(1); err != nil {
		t.Fatal(err)
	}
	p2, err := bbv.CollectSession(s, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := summarize(s.Machine); got != first {
		t.Errorf("reset trial diverges:\nfresh %+v\nreset %+v", first, got)
	}
	if s.Machine.Threads[0].Regs.GPR != firstGPR {
		t.Error("final registers diverge after reset")
	}
	if !bytes.Equal(marshalProfile(p1), marshalProfile(p2)) {
		t.Error("BBV profile differs between fresh and reset runs")
	}
}

// TestValidateNativeResetReuse: two validations of one prepared benchmark
// at the same seed must agree exactly, region for region. Every region
// measurement builds a fresh session, so the second validation inherits no
// machine state from the first.
func TestValidateNativeResetReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test")
	}
	b := prepareValidation(t, 0)
	v1, err := pinpoints.ValidateNative(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := pinpoints.ValidateNative(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	sameValidation(t, v1, v2)
}

// TestValidateNativeConcurrent runs two validations of one prepared
// benchmark from two goroutines (run it under -race): they share the
// regions' ELFies, never a machine, and both equal the serial result.
func TestValidateNativeConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test")
	}
	b := prepareValidation(t, 1)
	serial, err := pinpoints.ValidateNative(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	var vs [2]*pinpoints.Validation
	var errs [2]error
	var wg sync.WaitGroup
	for i := range vs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vs[i], errs[i] = pinpoints.ValidateNative(b, 7)
		}(i)
	}
	wg.Wait()
	for i, v := range vs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameValidation(t, serial, v)
	}
}

// prepareValidation prepares the second integer-rate recipe for the
// validation agreement tests, with jobs farm workers (0 = GOMAXPROCS).
func prepareValidation(t *testing.T, jobs int) *pinpoints.Benchmark {
	t.Helper()
	r := workloads.TrainIntRate()[1]
	b, err := pinpoints.Prepare(r, pinpoints.Config{
		SliceSize: 100_000, WarmupSize: 500_000, MaxK: 8,
		Seed: 1, UseSysState: true, Jobs: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameValidation fails t unless two validations agree exactly, region for
// region.
func sameValidation(t *testing.T, v1, v2 *pinpoints.Validation) {
	t.Helper()
	if v1.TrueCPI != v2.TrueCPI || v1.PredictedCPI != v2.PredictedCPI ||
		v1.Coverage != v2.Coverage {
		t.Errorf("validation trials diverge:\nfirst  %s\nsecond %s", v1, v2)
	}
	if len(v1.PerRegion) != len(v2.PerRegion) {
		t.Fatalf("region counts diverge: %d vs %d", len(v1.PerRegion), len(v2.PerRegion))
	}
	for i := range v1.PerRegion {
		if v1.PerRegion[i] != v2.PerRegion[i] {
			t.Errorf("region %d diverges:\nfirst  %+v\nsecond %+v",
				i, v1.PerRegion[i], v2.PerRegion[i])
		}
	}
}
