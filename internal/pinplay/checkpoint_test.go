package pinplay

import (
	"testing"

	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// pack encodes one retired instruction as (tid, pc) for stream comparison.
func pack(tid int, pc uint64) uint64 { return uint64(tid)<<48 | pc&(1<<48-1) }

// streamHook appends every retired (tid, pc) to *out via the OnIns hook.
func streamHook(out *[]uint64) func(m *vm.Machine) {
	return func(m *vm.Machine) {
		m.Hooks.OnIns = func(t *vm.Thread, r *vm.InsRecord) {
			*out = append(*out, pack(t.TID, r.PC))
		}
	}
}

// quietPlan arms fault injection without ever firing: the acceptance
// criterion wants the bit-identity guard to hold with injection armed
// (which also forces the slow interpreter path).
func quietPlan() *fault.Plan {
	return &fault.Plan{Seed: 9, Rules: []fault.Rule{
		{Point: fault.UngracefulExit, AtRetired: 1 << 40},
	}}
}

// TestCheckpointResumeBitIdentity is the tentpole guard: a constrained
// replay interrupted at an arbitrary instruction N, checkpointed, and
// resumed from the serialized checkpoint retires exactly the instruction
// stream an uninterrupted replay retires.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	pb := logRegion(t, mtProg, 1, nil,
		LogOptions{Name: "mt", RegionStart: 500, RegionLength: 20_000}.Fat())
	if pb.Meta.NumThreads != 2 {
		t.Fatalf("threads = %d", pb.Meta.NumThreads)
	}

	// The uninterrupted reference stream.
	var ref []uint64
	refRes, err := Replay(pb, kernel.New(kernel.NewFS(), 42), ReplayOptions{
		Injection: true, Injector: fault.New(quietPlan()), BeforeRun: streamHook(&ref),
	})
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Diverged || !refRes.Completed {
		t.Fatalf("reference replay: diverged=%v completed=%v (%s)",
			refRes.Diverged, refRes.Completed, refRes.DivergeReason)
	}

	for _, stopAt := range []uint64{1, 137, 2_900, 9_973, 19_999} {
		stopAt := stopAt
		t.Run(itoa(stopAt), func(t *testing.T) {
			// Leg 1: replay until N instructions retired, then a watchdog-style
			// RequestStop forces checkpoint-then-interrupt.
			var leg1 []uint64
			var ckpt *pinball.Pinball
			res1, err := Replay(pb, kernel.New(kernel.NewFS(), 43), ReplayOptions{
				Injection: true,
				Injector:  fault.New(quietPlan()),
				Ckpt: &harness.CkptOptions{
					Name: "mt.ckpt",
					Save: func(p *pinball.Pinball) error { ckpt = p; return nil },
				},
				BeforeRun: func(m *vm.Machine) {
					m.Hooks.OnIns = func(th *vm.Thread, r *vm.InsRecord) {
						leg1 = append(leg1, pack(th.TID, r.PC))
						if uint64(len(leg1)) == stopAt {
							m.RequestStop()
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res1.Interrupted {
				t.Fatal("RequestStop did not interrupt the replay")
			}
			if res1.Diverged {
				t.Fatalf("leg 1 diverged: %s", res1.DivergeReason)
			}
			if ckpt == nil {
				t.Fatal("no checkpoint saved on interruption")
			}
			if uint64(len(leg1)) != stopAt {
				t.Fatalf("leg 1 retired %d, want %d", len(leg1), stopAt)
			}

			// The checkpoint must survive serialization as a valid pinball.
			files, err := ckpt.FileSet()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := pinball.ReadFileSet("mt.ckpt", files, pinball.ReadOptions{})
			if err != nil {
				t.Fatalf("checkpoint does not load back: %v", err)
			}
			if loaded.Meta.Checkpoint == nil {
				t.Fatal("checkpoint metadata lost in round trip")
			}
			if err := loaded.ValidateCheckpoint(); err != nil {
				t.Fatalf("checkpoint fails validation: %v", err)
			}

			// Leg 2: resume from the loaded checkpoint on a fresh kernel with a
			// different seed — everything that matters must come from the
			// checkpoint, not the environment.
			var leg2 []uint64
			res2, err := Replay(loaded, kernel.New(kernel.NewFS(), 44), ReplayOptions{
				Injection: true, Injector: fault.New(quietPlan()), BeforeRun: streamHook(&leg2),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res2.Diverged {
				t.Fatalf("resumed replay diverged: %s", res2.DivergeReason)
			}
			if !res2.Completed {
				t.Fatalf("resumed replay incomplete: %v of %v",
					res2.PerThread, loaded.Meta.RegionLength)
			}

			combined := append(append([]uint64(nil), leg1...), leg2...)
			if len(combined) != len(ref) {
				t.Fatalf("stream lengths: interrupted+resumed %d, uninterrupted %d",
					len(combined), len(ref))
			}
			for i := range ref {
				if combined[i] != ref[i] {
					t.Fatalf("streams diverge at instruction %d: tid=%d pc=%#x vs tid=%d pc=%#x",
						i, combined[i]>>48, combined[i]&(1<<48-1), ref[i]>>48, ref[i]&(1<<48-1))
				}
			}
		})
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "stop-at-0"
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return "stop-at-" + string(buf[i:])
}

// TestPeriodicCheckpointsDoNotPerturbReplay proves that running with
// -ckpt-every chunking retires the identical stream as a plain replay, and
// that every periodic checkpoint taken along the way is itself resumable.
func TestPeriodicCheckpointsDoNotPerturbReplay(t *testing.T) {
	pb := logRegion(t, mtProg, 1, nil,
		LogOptions{Name: "mt", RegionStart: 500, RegionLength: 20_000}.Fat())

	var ref []uint64
	if _, err := Replay(pb, kernel.New(kernel.NewFS(), 7), ReplayOptions{
		Injection: true, BeforeRun: streamHook(&ref),
	}); err != nil {
		t.Fatal(err)
	}

	var chunked []uint64
	var ckpts []*pinball.Pinball
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 8), ReplayOptions{
		Injection: true,
		Ckpt: &harness.CkptOptions{
			Every: 3000,
			Name:  "mt.ckpt",
			Save:  func(p *pinball.Pinball) error { ckpts = append(ckpts, p); return nil },
		},
		BeforeRun: streamHook(&chunked),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || !res.Completed || res.Diverged {
		t.Fatalf("chunked replay: interrupted=%v completed=%v diverged=%v (%s)",
			res.Interrupted, res.Completed, res.Diverged, res.DivergeReason)
	}
	if len(chunked) != len(ref) {
		t.Fatalf("chunked stream %d vs plain %d", len(chunked), len(ref))
	}
	for i := range ref {
		if chunked[i] != ref[i] {
			t.Fatalf("chunked replay diverges at instruction %d", i)
		}
	}
	if len(ckpts) < 3 {
		t.Fatalf("only %d periodic checkpoints for a 20k region at every=3000", len(ckpts))
	}

	// Every periodic checkpoint resumes to the same end of stream.
	for i, ck := range ckpts {
		files, err := ck.FileSet()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := pinball.ReadFileSet("mt.ckpt", files, pinball.ReadOptions{})
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		var tail []uint64
		res, err := Replay(loaded, kernel.New(kernel.NewFS(), int64(100+i)), ReplayOptions{
			Injection: true, BeforeRun: streamHook(&tail),
		})
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if res.Diverged || !res.Completed {
			t.Fatalf("checkpoint %d resume: diverged=%v completed=%v (%s)",
				i, res.Diverged, res.Completed, res.DivergeReason)
		}
		at := ck.Meta.Checkpoint.GlobalRetired
		want := ref[at:]
		if len(tail) != len(want) {
			t.Fatalf("checkpoint %d tail %d vs %d", i, len(tail), len(want))
		}
		for j := range want {
			if tail[j] != want[j] {
				t.Fatalf("checkpoint %d tail diverges at %d", i, j)
			}
		}
	}
}

// TestCheckpointCarriesInjectionCursor proves the syscall-injection cursor
// is serialized: a checkpoint taken mid-replay of a syscall-heavy region
// carries exactly the unconsumed tail of the effect log, and the resumed
// replay injects exactly the remaining calls.
func TestCheckpointCarriesInjectionCursor(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "tp", RegionStart: 200, RegionLength: 3000}.Fat())
	if len(pb.Syscalls) == 0 {
		t.Fatal("workload logged no syscalls")
	}

	var retired uint64
	var ckpt *pinball.Pinball
	res1, err := Replay(pb, kernel.New(kernel.NewFS(), 5), ReplayOptions{
		Injection: true,
		Ckpt: &harness.CkptOptions{
			Name: "tp.ckpt",
			Save: func(p *pinball.Pinball) error { ckpt = p; return nil },
		},
		BeforeRun: func(m *vm.Machine) {
			m.Hooks.OnIns = func(th *vm.Thread, _ *vm.InsRecord) {
				retired++
				if retired == 1500 {
					m.RequestStop()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Interrupted || ckpt == nil {
		t.Fatal("no interruption/checkpoint")
	}
	if res1.InjectedSyscalls == 0 {
		t.Fatal("leg 1 injected nothing; interruption point too early")
	}
	if got := len(ckpt.Syscalls) + res1.InjectedSyscalls; got != len(pb.Syscalls) {
		t.Errorf("cursor accounting: %d remaining + %d injected != %d logged",
			len(ckpt.Syscalls), res1.InjectedSyscalls, len(pb.Syscalls))
	}

	files, err := ckpt.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := pinball.ReadFileSet("tp.ckpt", files, pinball.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Replay(loaded, kernel.New(kernel.NewFS(), 6), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Diverged || !res2.Completed {
		t.Fatalf("resumed: diverged=%v completed=%v (%s)",
			res2.Diverged, res2.Completed, res2.DivergeReason)
	}
	if res2.InjectedSyscalls != len(loaded.Syscalls) {
		t.Errorf("resume injected %d of %d remaining effects",
			res2.InjectedSyscalls, len(loaded.Syscalls))
	}
}
