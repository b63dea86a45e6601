package pinball

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"elfie/internal/isa"
	"elfie/internal/vm"
)

func samplePinball() *Pinball {
	fs := uint64(0x7000)
	pb := &Pinball{
		Name: "sample",
		Meta: Meta{
			Version: 1, ProgramName: "prog", NumThreads: 2,
			RegionLength: []uint64{1000, 900}, TotalInstructions: 1900,
			WarmupLength: 400, Fat: true, RegionStartIcount: 5000,
			EndPC: 0x401040, EndCount: 7,
			BrkStart: 0x600000, Brk: 0x610000,
			StackRegions: [][2]uint64{{0x7ffc00000000, 0x7ffc00100000}},
		},
		Pages: []Page{
			{Addr: 0x401000, Prot: 5, Data: make([]byte, 8192)},
			{Addr: 0x600000, Prot: 3, Data: []byte(strings.Repeat("x", 4096))},
		},
		Regs: []isa.RegFile{
			{PC: 0x401000, Flags: 1, FSBase: fs},
			{PC: 0x401100, GPR: [16]uint64{1, 2, 3}},
		},
		Syscalls: []SyscallEffect{
			{TID: 0, Num: 96, Ret: 0, Args: [5]uint64{0x6000f0},
				MemWrites: []MemWriteData{{Addr: 0x6000f0, Data: []byte{1, 2, 3}}}},
			{TID: 1, Num: 56, Ret: 1, Executed: true},
		},
		Sched: []vm.SchedRecord{{TID: 0, N: 500}, {TID: 1, N: 900}, {TID: 0, N: 500}},
	}
	pb.Regs[0].V[3] = [2]uint64{0xdead, 0xbeef}
	return pb
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pb := samplePinball()
	if err := pb.Save(dir); err != nil {
		t.Fatal(err)
	}
	// The paper's file set is present.
	for _, suffix := range []string{".global.log", ".text", ".0.reg", ".1.reg", ".sel", ".race"} {
		if _, err := os.Stat(filepath.Join(dir, "sample"+suffix)); err != nil {
			t.Errorf("missing %s: %v", suffix, err)
		}
	}
	got, err := Load(dir, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.NumThreads != 2 || got.Meta.EndPC != 0x401040 ||
		got.Meta.TotalInstructions != 1900 || !got.Meta.Fat {
		t.Errorf("meta: %+v", got.Meta)
	}
	if len(got.Pages) != 2 || got.Pages[0].Addr != 0x401000 || got.Pages[0].Prot != 5 {
		t.Errorf("pages: %+v", got.Pages)
	}
	if string(got.Pages[1].Data[:4]) != "xxxx" {
		t.Error("page data lost")
	}
	if got.Regs[0] != pb.Regs[0] || got.Regs[1] != pb.Regs[1] {
		t.Error("registers differ")
	}
	if len(got.Syscalls) != 2 || got.Syscalls[0].MemWrites[0].Addr != 0x6000f0 ||
		!got.Syscalls[1].Executed {
		t.Errorf("syscalls: %+v", got.Syscalls)
	}
	if len(got.Sched) != 3 || got.Sched[1] != (vm.SchedRecord{TID: 1, N: 900}) {
		t.Errorf("sched: %+v", got.Sched)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir, "absent"); err == nil {
		t.Error("missing pinball loaded")
	}
	pb := samplePinball()
	pb.Save(dir)
	// Corrupt the text file.
	os.WriteFile(filepath.Join(dir, "sample.text"), []byte{1, 2, 3}, 0o644)
	if _, err := Load(dir, "sample"); err == nil {
		t.Error("truncated .text accepted")
	}
	pb.Save(dir)
	os.WriteFile(filepath.Join(dir, "sample.race"), []byte{1, 2, 3, 4, 5}, 0o644)
	if _, err := Load(dir, "sample"); err == nil {
		t.Error("corrupt .race accepted")
	}
	pb.Save(dir)
	os.WriteFile(filepath.Join(dir, "sample.0.reg"), []byte("garbage here"), 0o644)
	if _, err := Load(dir, "sample"); err == nil {
		t.Error("corrupt .reg accepted")
	}
	pb.Save(dir)
	os.WriteFile(filepath.Join(dir, "sample.sel"), []byte("{not json"), 0o644)
	if _, err := Load(dir, "sample"); err == nil {
		t.Error("corrupt .sel accepted")
	}
	pb.Save(dir)
	os.WriteFile(filepath.Join(dir, "sample.global.log"), []byte("{"), 0o644)
	if _, err := Load(dir, "sample"); err == nil {
		t.Error("corrupt .global.log accepted")
	}
}

func TestSortPagesMerges(t *testing.T) {
	pb := &Pinball{Pages: []Page{
		{Addr: 0x3000, Prot: 3, Data: make([]byte, 4096)},
		{Addr: 0x1000, Prot: 3, Data: make([]byte, 4096)},
		{Addr: 0x2000, Prot: 3, Data: make([]byte, 4096)},
		{Addr: 0x5000, Prot: 5, Data: make([]byte, 4096)},
		{Addr: 0x6000, Prot: 3, Data: make([]byte, 4096)}, // different prot: no merge
	}}
	pb.SortPages()
	if len(pb.Pages) != 3 {
		t.Fatalf("pages after merge: %d", len(pb.Pages))
	}
	if pb.Pages[0].Addr != 0x1000 || len(pb.Pages[0].Data) != 3*4096 {
		t.Errorf("merged extent: %+v", pb.Pages[0])
	}
	if pb.ImageBytes() != 5*4096 {
		t.Errorf("image bytes: %d", pb.ImageBytes())
	}

	// Merged data keeps every page's bytes, in address order.
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
	pb = &Pinball{Pages: []Page{
		{Addr: 0x3000, Prot: 3, Data: page(3)},
		{Addr: 0x1000, Prot: 3, Data: page(1)},
		{Addr: 0x2000, Prot: 3, Data: page(2)},
	}}
	pb.SortPages()
	if want := append(append(page(1), page(2)...), page(3)...); len(pb.Pages) != 1 || !bytes.Equal(pb.Pages[0].Data, want) {
		t.Errorf("merged data out of order (%d records)", len(pb.Pages))
	}
}

func TestFindPage(t *testing.T) {
	pb := samplePinball()
	if p := pb.FindPage(0x401800); p == nil || p.Addr != 0x401000 {
		t.Errorf("FindPage: %+v", p)
	}
	if p := pb.FindPage(0x999999); p != nil {
		t.Errorf("found nonexistent page: %+v", p)
	}
}

// Property: register file formatting round-trips for arbitrary contents.
func TestRegsProperty(t *testing.T) {
	prop := func(gpr [16]uint64, pc, flags, fsb uint64) bool {
		r := isa.RegFile{GPR: gpr, PC: pc, Flags: flags & isa.FlagMask, FSBase: fsb}
		r.V[7] = [2]uint64{pc ^ 0x1234, flags}
		got, err := ParseRegs(FormatRegs(&r))
		return err == nil && *got == r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
