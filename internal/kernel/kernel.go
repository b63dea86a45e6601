// Package kernel emulates the operating-system layer beneath PVM programs:
// a Linux-flavored system-call interface, an in-memory filesystem, per-
// process file-descriptor tables, heap (brk) and anonymous mmap management,
// a virtual clock, and the ELF program loader with stack randomization.
//
// The kernel is what makes the paper's system-call handling challenge real
// in this reproduction: system calls executed by an ELFie really re-execute
// against kernel state, so a read() from a file descriptor opened before the
// captured region genuinely fails unless the SYSSTATE mechanism has
// re-created it.
package kernel

import (
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"

	"elfie/internal/fault"
	"elfie/internal/mem"
)

// Errno values (negated in syscall return registers, as on Linux).
const (
	EPERM  = 1
	ENOENT = 2
	EBADF  = 9
	ENOMEM = 12
	EFAULT = 14
	EEXIST = 17
	EINVAL = 22
	ENOSYS = 38
)

// VFile is one file in the in-memory filesystem.
type VFile struct {
	Data []byte
}

// FS is an in-memory filesystem shared by all processes of a Machine run.
// It is deliberately simple: a flat map of cleaned absolute paths, with
// directories implicit.
type FS struct {
	files map[string]*VFile
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*VFile)}
}

// clean normalizes p to an absolute cleaned path.
func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// WriteFile creates or replaces a file.
func (fs *FS) WriteFile(name string, data []byte) {
	fs.files[clean(name)] = &VFile{Data: append([]byte(nil), data...)}
}

// ReadFile returns a copy of a file's contents.
func (fs *FS) ReadFile(name string) ([]byte, bool) {
	f, ok := fs.files[clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.Data...), true
}

// Remove deletes a file.
func (fs *FS) Remove(name string) { delete(fs.files, clean(name)) }

// Names returns all file paths in sorted order.
func (fs *FS) Names() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the filesystem.
func (fs *FS) Clone() *FS {
	c := NewFS()
	for n, f := range fs.files {
		c.files[n] = &VFile{Data: append([]byte(nil), f.Data...)}
	}
	return c
}

func (fs *FS) lookup(name string) *VFile { return fs.files[clean(name)] }

// Open flags (subset of Linux).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// FD is one open file description.
type FD struct {
	Path   string
	File   *VFile
	Offset int64
	Flags  int64
	// Special streams: 1 = stdout, 2 = stderr, 0 = stdin.
	Stream int
}

// Process is the kernel-side state of one running process.
type Process struct {
	AS   *mem.AddrSpace
	FS   *FS
	FDs  map[int]*FD
	Cwd  string
	Root string // chroot prefix; "" = none

	BrkStart uint64
	Brk      uint64

	MmapBase uint64 // next anonymous mmap search address

	Stdin          []byte
	stdinOff       int
	Stdout, Stderr []byte

	// ImageRegions records the loadable segments of the main executable,
	// for the PinPlay logger's -log:whole_image switch.
	ImageRegions []mem.Region

	nextFD int
}

// NewProcess returns a process with standard descriptors attached and an
// empty address space.
func NewProcess(fs *FS) *Process {
	p := &Process{
		AS:       mem.NewAddrSpace(),
		FS:       fs,
		FDs:      make(map[int]*FD),
		Cwd:      "/",
		MmapBase: 0x7f0000000000,
		nextFD:   3,
	}
	p.FDs[0] = &FD{Stream: 0}
	p.FDs[1] = &FD{Stream: 1}
	p.FDs[2] = &FD{Stream: 2}
	return p
}

// resolve turns a process-relative path into an FS path, honouring chroot
// and the working directory.
func (p *Process) resolve(name string) string {
	if !strings.HasPrefix(name, "/") {
		name = path.Join(p.Cwd, name)
	}
	if p.Root != "" {
		name = path.Join(p.Root, name)
	}
	return clean(name)
}

// allocFD installs an FD at the lowest free number >= 3.
func (p *Process) allocFD(fd *FD) int {
	n := 3
	for {
		if _, used := p.FDs[n]; !used {
			p.FDs[n] = fd
			return n
		}
		n++
	}
}

// readString reads a NUL-terminated string from guest memory.
func readString(as *mem.AddrSpace, addr uint64) (string, error) {
	var out []byte
	var b [1]byte
	for len(out) < 4096 {
		if err := as.Read(addr, b[:]); err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
		addr++
	}
	return "", fmt.Errorf("kernel: unterminated string at %#x", addr)
}

// Clock converts retired instructions to virtual wall-clock time.
type Clock struct {
	BaseNanos     uint64 // virtual boot time
	NanosPerInstr float64
	JitterNanos   uint64 // seeded per-run offset, models run-to-run variation
	// IcountBase is the instruction count the run had reached before the
	// machine's own count started: a resumed checkpoint's position. Time
	// is computed from the whole count, so a resumed run reads exactly
	// the times the uninterrupted run would have read.
	IcountBase uint64
}

// Now returns virtual nanoseconds since the epoch after icount instructions.
func (c Clock) Now(icount uint64) uint64 {
	return c.BaseNanos + c.JitterNanos + uint64(float64(c.IcountBase+icount)*c.NanosPerInstr)
}

// Kernel holds machine-wide kernel state.
type Kernel struct {
	FS    *FS
	Clock Clock
	rng   *rand.Rand

	// PerfExitSupported gates perf_event_open; turning it off models
	// hardware without usable counters (ELFies then cannot exit gracefully
	// on their own).
	PerfExitSupported bool

	// Fault, when non-nil, injects system-call failures (error returns,
	// short reads/writes, mmap/brk exhaustion) according to its plan.
	Fault *fault.Injector
}

// New returns a kernel with the given filesystem and RNG seed. The seed
// feeds stack randomization and clock jitter, modeling run-to-run variation
// between native executions.
func New(fs *FS, seed int64) *Kernel {
	rng := rand.New(rand.NewSource(seed))
	return &Kernel{
		FS: fs,
		Clock: Clock{
			BaseNanos:     1_600_000_000_000_000_000,
			NanosPerInstr: 0.4, // ~2.5 GIPS virtual machine
			JitterNanos:   uint64(rng.Intn(1_000_000)),
		},
		rng:               rng,
		PerfExitSupported: true,
	}
}
