package kernel

import (
	"sort"

	"elfie/internal/mem"
)

// This file implements kernel-state serialization for live checkpoints: a
// mid-run pinball must carry not just the guest's registers and memory but
// the OS-side state the guest will ask about the moment it resumes — open
// file descriptors with their offsets, the brk cursor, the mmap search
// address, consumed stdin, and the filesystem image the descriptors point
// into. Everything here is plain JSON-able data so the pinball writer can
// embed it verbatim.

// Snapshot returns the filesystem's contents as a path -> data map. The
// returned byte slices are copies; mutating them does not affect the FS.
func (fs *FS) Snapshot() map[string][]byte {
	out := make(map[string][]byte, len(fs.files))
	for n, f := range fs.files {
		out[n] = append([]byte(nil), f.Data...)
	}
	return out
}

// RestoreFS builds a filesystem from a Snapshot map.
func RestoreFS(files map[string][]byte) *FS {
	fs := NewFS()
	for n, data := range files {
		fs.WriteFile(n, data)
	}
	return fs
}

// FDState is the serializable form of one open file description.
type FDState struct {
	FD     int    `json:"fd"`
	Path   string `json:"path,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Flags  int64  `json:"flags,omitempty"`
	Stream int    `json:"stream,omitempty"`
	// HasFile records whether the FD was backed by an FS file when
	// snapshotted. Restore re-resolves the backing file by path; an FD
	// whose file no longer exists restores with a nil backing, exactly
	// like the pseudo-FDs (perf_event) that never had one.
	HasFile bool `json:"has_file,omitempty"`
}

// ProcState is the serializable kernel-side state of a process, minus the
// address space (the pinball's page image covers that).
type ProcState struct {
	FDs      []FDState `json:"fds"`
	Cwd      string    `json:"cwd"`
	Root     string    `json:"root,omitempty"`
	BrkStart uint64    `json:"brk_start"`
	Brk      uint64    `json:"brk"`
	MmapBase uint64    `json:"mmap_base"`
	Stdin    []byte    `json:"stdin,omitempty"`
	StdinOff int       `json:"stdin_off,omitempty"`
	Stdout   []byte    `json:"stdout,omitempty"`
	Stderr   []byte    `json:"stderr,omitempty"`
	NextFD   int       `json:"next_fd"`
	// ImageRegions are the main executable's loadable segments, which a
	// region logged from a resumed checkpoint captures under WholeImage.
	ImageRegions []mem.Region `json:"image_regions,omitempty"`
}

// State snapshots the process's kernel-side state.
func (p *Process) State() ProcState {
	st := ProcState{
		Cwd:      p.Cwd,
		Root:     p.Root,
		BrkStart: p.BrkStart,
		Brk:      p.Brk,
		MmapBase: p.MmapBase,
		Stdin:    append([]byte(nil), p.Stdin...),
		StdinOff: p.stdinOff,
		Stdout:   append([]byte(nil), p.Stdout...),
		Stderr:   append([]byte(nil), p.Stderr...),
		NextFD:   p.nextFD,

		ImageRegions: append([]mem.Region(nil), p.ImageRegions...),
	}
	nums := make([]int, 0, len(p.FDs))
	for n := range p.FDs {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	for _, n := range nums {
		fd := p.FDs[n]
		st.FDs = append(st.FDs, FDState{
			FD: n, Path: fd.Path, Offset: fd.Offset, Flags: fd.Flags,
			Stream: fd.Stream, HasFile: fd.File != nil,
		})
	}
	return st
}

// RestoreState replaces the process's kernel-side state with a snapshot.
// File-backed descriptors are re-resolved by path against the process's
// current FS, so the FS must be restored (or equivalent) first.
func (p *Process) RestoreState(st ProcState) {
	p.Cwd = st.Cwd
	p.Root = st.Root
	p.BrkStart = st.BrkStart
	p.Brk = st.Brk
	p.MmapBase = st.MmapBase
	p.Stdin = append([]byte(nil), st.Stdin...)
	p.stdinOff = st.StdinOff
	p.Stdout = append([]byte(nil), st.Stdout...)
	p.Stderr = append([]byte(nil), st.Stderr...)
	p.nextFD = st.NextFD
	p.ImageRegions = append([]mem.Region(nil), st.ImageRegions...)
	p.FDs = make(map[int]*FD, len(st.FDs))
	for _, f := range st.FDs {
		fd := &FD{Path: f.Path, Offset: f.Offset, Flags: f.Flags, Stream: f.Stream}
		if f.HasFile {
			fd.File = p.FS.lookup(f.Path)
		}
		p.FDs[f.FD] = fd
	}
}
