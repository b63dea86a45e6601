package pinplay

import (
	"bytes"
	"encoding/binary"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/elfobj"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pinball"
	"elfie/internal/workloads"
)

// logSession composes a log session for exe at seed 1.
func logSession(t *testing.T, exe *elfobj.File, fs *kernel.FS) *harness.Session {
	t.Helper()
	s, err := harness.New(harness.Config{
		Mode: harness.ModeLog, Exe: exe, Argv: []string{"prog"}, FS: fs, Seed: 1,
		Budget: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameFiles fails the test unless two pinballs serialize to the same file
// set, byte for byte.
func sameFiles(t *testing.T, label string, a, b *pinball.Pinball) {
	t.Helper()
	fa, err := a.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != len(fb) {
		t.Fatalf("%s: %d files vs %d", label, len(fa), len(fb))
	}
	for name, data := range fa {
		if !bytes.Equal(data, fb[name]) {
			t.Errorf("%s: %s differs", label, name)
		}
	}
}

// TestLogFromSnapshotMatchesFresh: a region logged from a session resumed
// from a CheckpointState snapshot is byte-identical to the same region
// logged from a fresh session, with RegionStartIcount counted from the
// program's start. The snapshot is taken at the region start, or earlier
// and fast-forwarded the rest of the way. The programs read the virtual
// clock (sys.dense), read a file opened before the snapshot, and run two
// threads with the snapshot taken mid-quantum, so the resumed run must
// continue the owed quantum remainder.
func TestLogFromSnapshotMatchesFresh(t *testing.T) {
	dense, ok := workloads.CorpusByName("sys.dense")
	if !ok {
		t.Fatal("sys.dense missing")
	}
	denseExe, err := workloads.Build(dense.Recipe)
	if err != nil {
		t.Fatal(err)
	}
	asmExe := func(src string) *elfobj.File {
		exe, err := asm.Program(src)
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	withInput := func() *kernel.FS {
		fs := kernel.NewFS()
		fs.WriteFile("/input.dat", bytes.Repeat([]byte("abcdefgh"), 200))
		return fs
	}
	cases := []struct {
		name          string
		exe           *elfobj.File
		fs            func() *kernel.FS
		start, length uint64
		midQuantum    bool
	}{
		{"clock", denseExe, kernel.NewFS, 150_003, 40_000, false},
		{"file", asmExe(fileProg), withInput, 257, 600, false},
		{"mt-mid-quantum", asmExe(mtProg), kernel.NewFS, 5_051, 8_000, true},
	}
	variants := []struct {
		name string
		opts LogOptions
	}{
		{"plain", LogOptions{}},
		{"whole-image", LogOptions{WholeImage: true}},
		{"fat", LogOptions{}.Fat()},
	}
	for _, tc := range cases {
		// snapshotAt runs a fresh session to at and freezes it there.
		snapshotAt := func(at uint64) *pinball.Pinball {
			s := logSession(t, tc.exe, tc.fs())
			s.Machine.MaxInstructions = at
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if _, owed := s.Machine.PendingQuantum(); tc.midQuantum && at == tc.start && owed == 0 {
				t.Fatalf("%s: snapshot at %d falls on a quantum boundary", tc.name, at)
			}
			snap, err := s.CheckpointState("snap")
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
		snaps := []*pinball.Pinball{snapshotAt(tc.start), snapshotAt(tc.start / 2)}
		for _, v := range variants {
			opts := v.opts
			opts.Name, opts.RegionStart, opts.RegionLength = "r", tc.start, tc.length
			fresh, err := LogSession(logSession(t, tc.exe, tc.fs()), opts)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Meta.RegionStartIcount != tc.start {
				t.Fatalf("%s/%s: fresh region starts at %d", tc.name, v.name, fresh.Meta.RegionStartIcount)
			}
			if tc.midQuantum && fresh.Meta.NumThreads < 2 {
				t.Fatalf("%s: region has %d threads", tc.name, fresh.Meta.NumThreads)
			}
			for _, snap := range snaps {
				s, err := harness.New(harness.Config{Mode: harness.ModeLog, Pinball: snap, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Icount(); got != snap.Meta.RegionStartIcount {
					t.Fatalf("resumed session at %d, snapshot taken at %d", got, snap.Meta.RegionStartIcount)
				}
				resumed, err := LogSession(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameFiles(t, tc.name+"/"+v.name+" from snapshot", fresh, resumed)
			}
		}
	}
}

// TestLogSessionRefusesPastStart: a session already past the region start
// cannot log it.
func TestLogSessionRefusesPastStart(t *testing.T) {
	exe, err := asm.Program(timeProg)
	if err != nil {
		t.Fatal(err)
	}
	s := logSession(t, exe, nil)
	s.Machine.MaxInstructions = 500
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := LogSession(s, LogOptions{RegionStart: 100, RegionLength: 100}); err == nil {
		t.Error("logged a region that starts before the session's position")
	}
}

// pageSourcesProg stores to one data page, has the kernel read a second
// (write(2)) and fill a third (clock_gettime), and runs from a code page
// it never reads as data.
const pageSourcesProg = `
	.text
	.global _start
_start:
	movi r13, 0
loop:
	limm r12, arr
	ld.q r7, [r12]
	addi r7, r7, 1
	st.q r7, [r12]
	movi r0, 1           # write(1, kin, 8)
	movi r1, 1
	limm r2, kin
	movi r3, 8
	syscall
	movi r0, 228         # clock_gettime(0, kout)
	movi r1, 0
	limm r2, kout
	syscall
	addi r13, r13, 1
	cmpi r13, 500
	jnz  loop
	movi r0, 231
	movi r1, 0
	syscall
	.data
	.align 4096
arr:	.space 4096
kin:	.space 4096
kout:	.space 4096
`

// TestLoggerPageSources: a regular (not fat) pinball holds exactly the
// pages the region used, each with the content replay needs: the code
// page it fetched (from OnBlock), the data page as it was before the
// region's first store (from the first-touch callback), and the page the
// kernel filled with its post-call content; the page only the kernel read
// is left out.
func TestLoggerPageSources(t *testing.T) {
	exe, err := asm.Program(pageSourcesProg)
	if err != nil {
		t.Fatal(err)
	}
	sym := func(name string) uint64 {
		s, ok := exe.Symbol(name)
		if !ok {
			t.Fatalf("no symbol %s", name)
		}
		return s.Value
	}
	const start = 1_003
	ref := logSession(t, exe, nil)
	ref.Machine.MaxInstructions = start
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	before, err := ref.Machine.Proc.AS.ReadU64(sym("arr"))
	if err != nil {
		t.Fatal(err)
	}

	pb, err := LogSession(logSession(t, exe, nil), LogOptions{Name: "p", RegionStart: start, RegionLength: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	pages := map[uint64][]byte{}
	for _, pg := range pb.Pages {
		pages[pg.Addr] = pg.Data
	}
	if pages[mem.PageBase(sym("loop"))] == nil {
		t.Error("the fetched code page is missing")
	}
	if data := pages[sym("arr")]; data == nil || binary.LittleEndian.Uint64(data) != before {
		t.Errorf("data page missing or not captured before the region's first store (want first word %d)", before)
	}
	var firstOut []byte
	for _, e := range pb.Syscalls {
		if e.Num == kernel.SysClockGettime {
			firstOut = e.MemWrites[0].Data
			break
		}
	}
	if out := pages[sym("kout")]; out == nil || firstOut == nil || !bytes.Equal(out[:16], firstOut) {
		t.Error("kernel-filled page missing or not holding its first post-call content")
	}
	if pages[sym("kin")] != nil {
		t.Error("a page only the kernel read was captured")
	}
	if len(pages) != 3 {
		t.Errorf("captured %d pages, want code, data and the kernel-filled page", len(pages))
	}
}
