package pinpoints

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pinball"
	"elfie/internal/simpoint"
	"elfie/internal/workloads"
)

// regionDigests hashes every region Prepare built: the pinball's file set
// (sorted by name) and the ELFie bytes, one digest per region in merge
// order.
func regionDigests(t *testing.T, b *Benchmark) []string {
	t.Helper()
	out := make([]string, len(b.Regions))
	for i, reg := range b.Regions {
		files, err := reg.Pinball.FileSet()
		if err != nil {
			t.Fatalf("region %d file set: %v", i, err)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			binary.Write(h, binary.LittleEndian, uint64(len(name)))
			h.Write([]byte(name))
			binary.Write(h, binary.LittleEndian, uint64(len(files[name])))
			h.Write(files[name])
		}
		elfie, err := reg.ELFie.Write()
		if err != nil {
			t.Fatalf("region %d elfie: %v", i, err)
		}
		h.Write(elfie)
		out[i] = fmt.Sprintf("s%d:%x", reg.SliceUsed, h.Sum(nil)[:8])
	}
	return out
}

// TestPrepareGoldenDigests pins the bytes of every region pinball and ELFie
// Prepare builds, on the phased single-threaded recipe and on the
// 8-thread cam4 stand-in, whose later regions start mid-run. However the
// log stage reaches a region's start, its artifacts must not change.
func TestPrepareGoldenDigests(t *testing.T) {
	cam4, ok := workloads.ByName("627.cam4_s.1")
	if !ok {
		t.Fatal("627.cam4_s.1 recipe missing")
	}
	mtCfg := smallConfig()
	mtCfg.MaxK = 4
	cases := []struct {
		name   string
		recipe workloads.Recipe
		cfg    Config
		want   []string
	}{
		{"phased", smallRecipe(), smallConfig(), []string{
			"s8:9b8b7958251ec170", "s6:b1b12e4b84a22b12", "s31:355c07b11484ed14",
			"s38:4189bb4fef8c1e0d", "s3:dad1b8306d7c7886",
		}},
		{"cam4-8threads", cam4, mtCfg, []string{
			"s7:4c0d30d40c6e8882", "s0:a1deeb6bce89fb1d", "s8:d82b4739fbf39f40",
			"s2:43a819d239a3fea6",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Prepare(tc.recipe, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := regionDigests(t, b)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("region digests\n got  %q\n want %q", got, tc.want)
			}
		})
	}
}

// pinballDigest hashes a pinball as a reader gets it back from its own file
// set: every page (address, protection, bytes), every thread's registers,
// the syscall effects and the schedule. It leaves out the metadata, which
// stamps the format version.
func pinballDigest(t *testing.T, pb *pinball.Pinball) string {
	t.Helper()
	files, err := pb.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	back, err := pinball.ReadFileSet(pb.Name, files, pinball.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, pg := range back.Pages {
		binary.Write(h, binary.LittleEndian, [3]uint64{pg.Addr, uint64(pg.Prot), uint64(len(pg.Data))})
		h.Write(pg.Data)
	}
	for i := range back.Regs {
		h.Write([]byte(pinball.FormatRegs(&back.Regs[i])))
	}
	for i := range back.Syscalls {
		line, err := json.Marshal(&back.Syscalls[i])
		if err != nil {
			t.Fatal(err)
		}
		h.Write(line)
	}
	for _, r := range back.Sched {
		binary.Write(h, binary.LittleEndian, [2]uint64{uint64(r.TID), r.N})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// loadedDigest hashes an ELFie as the loader maps it: every mapped page's
// address, protection and bytes, the entry registers, the image regions
// and the heap break.
func loadedDigest(t *testing.T, exe *elfobj.File) string {
	t.Helper()
	k := kernel.New(kernel.NewFS(), 1)
	proc := kernel.NewProcess(k.FS)
	res, err := k.Load(proc, exe, []string{"elfie"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, [6]uint64{
		res.Entry, res.SP, res.StackLow, res.StackTop, proc.BrkStart, proc.Brk,
	})
	for _, r := range proc.ImageRegions {
		binary.Write(h, binary.LittleEndian, [3]uint64{r.Addr, r.Size, uint64(r.Prot)})
	}
	for _, r := range proc.AS.Regions() {
		for a := r.Addr; a < r.Addr+r.Size; a += mem.PageSize {
			binary.Write(h, binary.LittleEndian, [2]uint64{a, uint64(proc.AS.Prot(a))})
			h.Write(proc.AS.PageData(a))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// lintDigest hashes a region's lint report: its findings in order, the CFG
// counts, the SMC verdict and the abstract interpreter's step count.
func lintDigest(t *testing.T, reg *Region, exe *elfobj.File) string {
	t.Helper()
	rep, err := elflint.Lint(exe, elflint.Options{
		Pinball: reg.Pinball, Restore: reg.Restore, Semantic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, f := range rep.Findings {
		fmt.Fprintln(h, f)
	}
	fmt.Fprintln(h, rep.Insts, rep.Blocks, rep.SMC, rep.SemanticSteps)
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// TestPrepareLoadedDigests pins what every region's artifacts mean rather
// than their bytes: the pinball a reader gets back, the memory and
// registers the loader gives the ELFie, and the ELFie's lint report. An
// encoding change to either format must keep all three. The ELFie is
// checked both as Prepare holds it and after a write and re-read, as a
// store round trip hands it to validation.
func TestPrepareLoadedDigests(t *testing.T) {
	cam4, ok := workloads.ByName("627.cam4_s.1")
	if !ok {
		t.Fatal("627.cam4_s.1 recipe missing")
	}
	mtCfg := smallConfig()
	mtCfg.MaxK = 4
	cases := []struct {
		name   string
		recipe workloads.Recipe
		cfg    Config
		want   []string
	}{
		{"phased", smallRecipe(), smallConfig(), []string{
			"s8 pb:860bd54238bb elf:9bc09dd50a5e lint:48e5924983f4",
			"s6 pb:b834694284a7 elf:fc98f45b0286 lint:48e5924983f4",
			"s31 pb:7d3497e53618 elf:7279c54fa02f lint:48e5924983f4",
			"s38 pb:9778c1b0adca elf:2bfad03d3dc6 lint:48e5924983f4",
			"s3 pb:6dd14909a795 elf:f6ac704ba096 lint:48e5924983f4",
		}},
		{"cam4-8threads", cam4, mtCfg, []string{
			"s7 pb:6dfd0c592276 elf:fadc3c77bc3e lint:4b8fc6efd8a2",
			"s0 pb:3ab6ecf162d5 elf:6e5bac060446 lint:48e5924983f4",
			"s8 pb:17f16040ded8 elf:b34514c654be lint:4b8fc6efd8a2",
			"s2 pb:cfd908b1c3b4 elf:4dcacec7dfb3 lint:48e5924983f4",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Prepare(tc.recipe, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, reg := range b.Regions {
				raw, err := reg.ELFie.Write()
				if err != nil {
					t.Fatal(err)
				}
				reread, err := elfobj.Read(raw)
				if err != nil {
					t.Fatal(err)
				}
				elf, lint := loadedDigest(t, reg.ELFie), lintDigest(t, reg, reg.ELFie)
				if d := loadedDigest(t, reread); d != elf {
					t.Errorf("slice %d: re-read ELFie loads as %s, in memory as %s", reg.SliceUsed, d, elf)
				}
				if d := lintDigest(t, reg, reread); d != lint {
					t.Errorf("slice %d: re-read ELFie lints as %s, in memory as %s", reg.SliceUsed, d, lint)
				}
				got = append(got, fmt.Sprintf("s%d pb:%s elf:%s lint:%s",
					reg.SliceUsed, pinballDigest(t, reg.Pinball), elf, lint))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("loaded digests\n got  %q\n want %q", got, tc.want)
			}
		})
	}
}

// TestAlternateLogsSameFromSnapshot: an alternate region built during
// validation (buildRegion) is byte-identical whether its log job
// fast-forwards from the forward pass's nearest earlier snapshot or from a
// fresh session.
func TestAlternateLogsSameFromSnapshot(t *testing.T) {
	b, err := Prepare(smallRecipe(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	primary := map[uint64]bool{}
	for _, reg := range b.Regions {
		primary[reg.StartIcount] = true
	}
	// An alternate whose start is no primary's: it fast-forwards from the
	// snapshot before it.
	var sel simpoint.Region
	slice := -1
	for _, s := range b.Selection.Regions {
		for _, alt := range s.Alternates {
			if start, _ := b.regionWindow(alt); start > 0 && !primary[start] && b.pass.snapshot(start) != nil {
				sel, slice = s, alt
				break
			}
		}
		if slice >= 0 {
			break
		}
	}
	if slice < 0 {
		t.Fatal("no alternate starts after a snapshot")
	}
	fromSnap := b.buildRegion(sel, slice)
	b.pass = nil
	fresh := b.buildRegion(sel, slice)
	if fromSnap == nil || fresh == nil {
		t.Fatalf("alternate slice %d did not build (snapshot %v, fresh %v)", slice, fromSnap != nil, fresh != nil)
	}
	tmp := &Benchmark{Regions: []*Region{fromSnap, fresh}}
	if d := regionDigests(t, tmp); d[0] != d[1] {
		t.Errorf("alternate slice %d: from snapshot %s, fresh %s", slice, d[0], d[1])
	}
}
