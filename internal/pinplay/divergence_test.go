package pinplay

import (
	"testing"

	"elfie/internal/fault"
	"elfie/internal/kernel"
)

func TestDivergenceReportSyscallMismatch(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "d", RegionStart: 100, RegionLength: 800}.Fat())
	// Corrupt the log: swap a syscall number and an argument, so the replay
	// runs gettimeofday where the log claims getpid with a different arg.
	for i := range pb.Syscalls {
		if pb.Syscalls[i].Num == kernel.SysGettimeofday {
			pb.Syscalls[i].Num = kernel.SysGetpid
			pb.Syscalls[i].Args[0] ^= 0xabc000
			break
		}
	}
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 1), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Fatal("divergence not detected")
	}
	rep := res.Divergence
	if rep == nil {
		t.Fatal("no structured report")
	}
	if rep.Kind != DivergeSyscallMismatch {
		t.Errorf("kind = %s", rep.Kind)
	}
	if rep.TID != 0 {
		t.Errorf("tid = %d", rep.TID)
	}
	if rep.PC == 0 {
		t.Error("pc not recorded")
	}
	if rep.Retired == 0 || rep.GlobalRetired == 0 {
		t.Errorf("retired=%d global=%d", rep.Retired, rep.GlobalRetired)
	}
	if rep.ExpectedSyscall != "getpid" || rep.ExpectedNum != kernel.SysGetpid {
		t.Errorf("expected syscall: %s (%d)", rep.ExpectedSyscall, rep.ExpectedNum)
	}
	if rep.ActualSyscall != "gettimeofday" || rep.ActualNum != kernel.SysGettimeofday {
		t.Errorf("actual syscall: %s (%d)", rep.ActualSyscall, rep.ActualNum)
	}
	// The corrupted argument register appears in the diff with both values.
	found := false
	for _, d := range rep.RegDiff {
		if d.Name == "r1" && d.Expected^d.Actual == 0xabc000 {
			found = true
		}
	}
	if !found {
		t.Errorf("reg diff missing corrupted arg: %+v", rep.RegDiff)
	}
	// The legacy one-line reason is exactly the report's rendering.
	if res.DivergeReason != rep.String() || res.DivergeReason == "" {
		t.Errorf("reason %q != report %q", res.DivergeReason, rep.String())
	}
}

func TestDivergenceReportUnloggedSyscall(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "u", RegionStart: 100, RegionLength: 800}.Fat())
	if len(pb.Syscalls) == 0 {
		t.Fatal("region logged no syscalls")
	}
	pb.Syscalls = nil // every replayed call is now unlogged
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 1), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Divergence
	if rep == nil || rep.Kind != DivergeUnloggedSyscall {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ActualSyscall == "" || rep.PC == 0 {
		t.Errorf("incomplete report: %+v", rep)
	}
}

func TestDivergenceReportInjectedFault(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "f", RegionStart: 100, RegionLength: 800}.Fat())
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 1), ReplayOptions{
		Injection: true,
		Injector: fault.New(&fault.Plan{Seed: 2, Rules: []fault.Rule{
			{Point: fault.PageFault, AtRetired: 300},
		}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Divergence
	if rep == nil || rep.Kind != DivergeFault {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Fault == nil {
		t.Error("fault detail missing")
	}
	if res.Completed {
		t.Error("faulted replay reported complete")
	}
}
