package kernel

import (
	"elfie/internal/fault"
	"elfie/internal/isa"
	"elfie/internal/mem"
)

// System call numbers (Linux x86-64 numbering for the calls we emulate).
const (
	SysRead         = 0
	SysWrite        = 1
	SysOpen         = 2
	SysClose        = 3
	SysFstat        = 5
	SysLseek        = 8
	SysMmap         = 9
	SysMprotect     = 10
	SysMunmap       = 11
	SysBrk          = 12
	SysNanosleep    = 35
	SysGetpid       = 39
	SysClone        = 56
	SysExit         = 60
	SysGettimeofday = 96
	SysPrctl        = 157
	SysArchPrctl    = 158
	SysChroot       = 161
	SysGetdents     = 78
	SysDup          = 32
	SysDup2         = 33
	SysSchedYield   = 24
	SysClockGettime = 228
	SysExitGroup    = 231
	SysPerfOpen     = 298
)

// SyscallName returns a printable name for a syscall number.
func SyscallName(n uint64) string {
	switch n {
	case SysRead:
		return "read"
	case SysWrite:
		return "write"
	case SysOpen:
		return "open"
	case SysClose:
		return "close"
	case SysFstat:
		return "fstat"
	case SysLseek:
		return "lseek"
	case SysMmap:
		return "mmap"
	case SysMprotect:
		return "mprotect"
	case SysMunmap:
		return "munmap"
	case SysBrk:
		return "brk"
	case SysNanosleep:
		return "nanosleep"
	case SysGetpid:
		return "getpid"
	case SysClone:
		return "clone"
	case SysExit:
		return "exit"
	case SysGettimeofday:
		return "gettimeofday"
	case SysPrctl:
		return "prctl"
	case SysArchPrctl:
		return "arch_prctl"
	case SysChroot:
		return "chroot"
	case SysGetdents:
		return "getdents"
	case SysDup:
		return "dup"
	case SysDup2:
		return "dup2"
	case SysSchedYield:
		return "sched_yield"
	case SysClockGettime:
		return "clock_gettime"
	case SysExitGroup:
		return "exit_group"
	case SysPerfOpen:
		return "perf_event_open"
	}
	return "sys?"
}

// arch_prctl codes.
const (
	ArchSetGS = 0x1001
	ArchSetFS = 0x1002
	ArchGetFS = 0x1003
	ArchGetGS = 0x1004
)

// PrSetBrk is the prctl code the ELFie startup uses to restore the heap
// break recorded in BRK.log (the paper uses prctl(PR_SET_MM) analogously).
const PrSetBrk = 0x2001

// mmap flags.
const (
	MapPrivate = 0x02
	MapFixed   = 0x10
	MapAnon    = 0x20
)

// PerfAttr is the guest-visible perf_event_open attribute block: three
// little-endian uint64 fields read from guest memory.
type PerfAttr struct {
	Period  uint64 // retired-instruction count before the event fires
	Handler uint64 // PC to redirect the thread to; 0 with ExitOnOverflow set
	Flags   uint64 // bit 0: exit on overflow instead of jumping; bit 1: exit the process
}

// PerfAttrSize is the size of the guest attribute block.
const PerfAttrSize = 24

// PerfAttr flags.
const (
	// PerfExitOnOverflow requests thread exit at overflow.
	PerfExitOnOverflow = 1
	// PerfExitGroupOnOverflow, with PerfExitOnOverflow, widens the exit to
	// the whole process: the counted thread's overflow ends every thread.
	PerfExitGroupOnOverflow = 2
)

// Action tells the VM what thread-level effect a system call has.
type Action uint8

// Actions.
const (
	ActNone Action = iota
	ActExitThread
	ActExitGroup
	ActClone
	ActPerfOpen
	ActYield
)

// MemWrite records one guest-memory range a system call wrote, so the
// PinPlay logger can capture system-call side effects for later injection.
type MemWrite struct {
	Addr uint64
	Len  int
}

// Result is the outcome of a system call.
type Result struct {
	Ret        uint64
	Action     Action
	ExitStatus int
	CloneEntry uint64
	CloneSP    uint64
	Perf       PerfAttr
	// MemWrites lists guest memory written by the call (side effects).
	MemWrites []MemWrite
}

func errno(e int) Result { return Result{Ret: uint64(-int64(e))} }
func ok(v uint64) Result { return Result{Ret: v} }

// Ctx is the per-call context handed to Syscall.
type Ctx struct {
	Proc   *Process
	Regs   *isa.RegFile
	TID    int
	Icount uint64 // machine-wide retired instruction count (drives the clock)
}

// Syscall executes the system call selected by r0 with arguments in r1..r5.
// It mutates process and filesystem state and returns the result value plus
// any thread-level action for the VM to carry out.
func (k *Kernel) Syscall(c *Ctx) Result {
	num := c.Regs.GPR[isa.R0]
	a1 := c.Regs.GPR[isa.R1]
	a2 := c.Regs.GPR[isa.R2]
	a3 := c.Regs.GPR[isa.R3]

	// Fault injection: error out matching calls before they execute.
	// exit/exit_group are exempt — they never return on a real kernel, so
	// an injected errno there would invent an impossible failure mode.
	if num != SysExit && num != SysExitGroup {
		if e, injected := k.Fault.SyscallErrno(num); injected {
			return errno(e)
		}
	}

	switch num {
	case SysRead:
		return k.sysRead(c, int(int64(a1)), a2, a3)
	case SysWrite:
		return k.sysWrite(c, int(int64(a1)), a2, a3)
	case SysOpen:
		return k.sysOpen(c, a1, int64(a2))
	case SysClose:
		fd := int(int64(a1))
		if _, okFD := c.Proc.FDs[fd]; !okFD {
			return errno(EBADF)
		}
		delete(c.Proc.FDs, fd)
		return ok(0)
	case SysFstat:
		return k.sysFstat(c, int(int64(a1)), a2)
	case SysLseek:
		return k.sysLseek(c, int(int64(a1)), int64(a2), int(int64(a3)))
	case SysMmap:
		return k.sysMmap(c, a1, a2, int(int64(a3)), int64(c.Regs.GPR[isa.R4]))
	case SysMprotect:
		c.Proc.AS.Map(a1, a2, protFromLinux(int(int64(a3))))
		return ok(0)
	case SysMunmap:
		c.Proc.AS.Unmap(a1, a2)
		return ok(0)
	case SysBrk:
		return k.sysBrk(c, a1)
	case SysNanosleep:
		return ok(0) // virtual time has no sleeping
	case SysGetpid:
		return ok(1000)
	case SysClone:
		if a2 == 0 || a3 == 0 {
			return errno(EINVAL)
		}
		return Result{Action: ActClone, CloneSP: a2, CloneEntry: a3}
	case SysExit:
		return Result{Action: ActExitThread, ExitStatus: int(int64(a1))}
	case SysExitGroup:
		return Result{Action: ActExitGroup, ExitStatus: int(int64(a1))}
	case SysGettimeofday:
		return k.sysGettimeofday(c, a1)
	case SysClockGettime:
		return k.sysClockGettime(c, a2)
	case SysSchedYield:
		return Result{Action: ActYield}
	case SysPrctl:
		if a1 == PrSetBrk {
			c.Proc.Brk = a2
			if c.Proc.BrkStart == 0 || a3 != 0 {
				c.Proc.BrkStart = a3
			}
			return ok(0)
		}
		return errno(EINVAL)
	case SysArchPrctl:
		switch a1 {
		case ArchSetFS:
			c.Regs.FSBase = a2
			return ok(0)
		case ArchSetGS:
			c.Regs.GSBase = a2
			return ok(0)
		case ArchGetFS:
			if err := c.Proc.AS.WriteU64(a2, c.Regs.FSBase); err != nil {
				return errno(EFAULT)
			}
			return Result{MemWrites: []MemWrite{{Addr: a2, Len: 8}}}
		case ArchGetGS:
			if err := c.Proc.AS.WriteU64(a2, c.Regs.GSBase); err != nil {
				return errno(EFAULT)
			}
			return Result{MemWrites: []MemWrite{{Addr: a2, Len: 8}}}
		}
		return errno(EINVAL)
	case SysChroot:
		pathname, err := readString(c.Proc.AS, a1)
		if err != nil {
			return errno(EFAULT)
		}
		c.Proc.Root = c.Proc.resolve(pathname)
		return ok(0)
	case SysGetdents:
		// Directory iteration is declared but not emulated: the explicit
		// case keeps the dispatch table aligned with the constant block
		// (checked by internal/elflint/golint) instead of falling through
		// to the anonymous default.
		return errno(ENOSYS)
	case SysDup:
		fd, okFD := c.Proc.FDs[int(int64(a1))]
		if !okFD {
			return errno(EBADF)
		}
		cp := *fd
		return ok(uint64(c.Proc.allocFD(&cp)))
	case SysDup2:
		fd, okFD := c.Proc.FDs[int(int64(a1))]
		if !okFD {
			return errno(EBADF)
		}
		cp := *fd
		c.Proc.FDs[int(int64(a2))] = &cp
		return ok(a2)
	case SysPerfOpen:
		if !k.PerfExitSupported {
			return errno(ENOSYS)
		}
		var buf [PerfAttrSize]byte
		if err := c.Proc.AS.Read(a1, buf[:]); err != nil {
			return errno(EFAULT)
		}
		attr := PerfAttr{
			Period:  leU64(buf[0:]),
			Handler: leU64(buf[8:]),
			Flags:   leU64(buf[16:]),
		}
		if attr.Period == 0 {
			return errno(EINVAL)
		}
		return Result{Ret: uint64(c.Proc.allocFD(&FD{Path: "perf_event"})), Action: ActPerfOpen, Perf: attr}
	}
	return errno(ENOSYS)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func (k *Kernel) sysRead(c *Ctx, fd int, buf, count uint64) Result {
	f, okFD := c.Proc.FDs[fd]
	if !okFD {
		return errno(EBADF)
	}
	if count > 1<<24 {
		count = 1 << 24
	}
	var src []byte
	switch {
	case f.Stream == 0 && f.File == nil && f.Path == "":
		src = c.Proc.Stdin[c.Proc.stdinOff:]
	case f.File != nil:
		if f.Offset >= int64(len(f.File.Data)) {
			return ok(0)
		}
		src = f.File.Data[f.Offset:]
	default:
		return errno(EBADF)
	}
	n := uint64(len(src))
	if n > count {
		n = count
	}
	if short, injected := k.Fault.ShortIO(fault.ShortRead, SysRead, n); injected {
		n = short
	}
	if n == 0 {
		return ok(0)
	}
	if err := c.Proc.AS.Write(buf, src[:n]); err != nil {
		return errno(EFAULT)
	}
	if f.File != nil {
		f.Offset += int64(n)
	} else {
		c.Proc.stdinOff += int(n)
	}
	return Result{Ret: n, MemWrites: []MemWrite{{Addr: buf, Len: int(n)}}}
}

func (k *Kernel) sysWrite(c *Ctx, fd int, buf, count uint64) Result {
	f, okFD := c.Proc.FDs[fd]
	if !okFD {
		return errno(EBADF)
	}
	if count > 1<<24 {
		return errno(EINVAL)
	}
	if short, injected := k.Fault.ShortIO(fault.ShortWrite, SysWrite, count); injected {
		count = short
	}
	data := make([]byte, count)
	if err := c.Proc.AS.Read(buf, data); err != nil {
		return errno(EFAULT)
	}
	switch {
	case f.Stream == 1:
		c.Proc.Stdout = append(c.Proc.Stdout, data...)
	case f.Stream == 2:
		c.Proc.Stderr = append(c.Proc.Stderr, data...)
	case f.File != nil:
		end := f.Offset + int64(count)
		if f.Flags&OAppend != 0 {
			f.Offset = int64(len(f.File.Data))
			end = f.Offset + int64(count)
		}
		if end > int64(len(f.File.Data)) {
			grown := make([]byte, end)
			copy(grown, f.File.Data)
			f.File.Data = grown
		}
		copy(f.File.Data[f.Offset:], data)
		f.Offset = end
	default:
		return errno(EBADF)
	}
	return ok(count)
}

func (k *Kernel) sysOpen(c *Ctx, pathAddr uint64, flags int64) Result {
	name, err := readString(c.Proc.AS, pathAddr)
	if err != nil {
		return errno(EFAULT)
	}
	full := c.Proc.resolve(name)
	file := c.Proc.FS.lookup(full)
	if file == nil {
		if flags&OCreat == 0 {
			return errno(ENOENT)
		}
		file = &VFile{}
		c.Proc.FS.files[full] = file
	} else if flags&OTrunc != 0 {
		file.Data = nil
	}
	fd := c.Proc.allocFD(&FD{Path: full, File: file, Flags: flags})
	return ok(uint64(fd))
}

func (k *Kernel) sysFstat(c *Ctx, fd int, statAddr uint64) Result {
	f, okFD := c.Proc.FDs[fd]
	if !okFD {
		return errno(EBADF)
	}
	// Minimal stat: one uint64 size at offset 48 (st_size position in
	// Linux's struct stat), rest zero.
	var st [144]byte
	if f.File != nil {
		putU64(st[48:], uint64(len(f.File.Data)))
	}
	if err := c.Proc.AS.Write(statAddr, st[:]); err != nil {
		return errno(EFAULT)
	}
	return Result{MemWrites: []MemWrite{{Addr: statAddr, Len: len(st)}}}
}

func (k *Kernel) sysLseek(c *Ctx, fd int, off int64, whence int) Result {
	f, okFD := c.Proc.FDs[fd]
	if !okFD || f.File == nil {
		return errno(EBADF)
	}
	var base int64
	switch whence {
	case 0: // SEEK_SET
		base = 0
	case 1: // SEEK_CUR
		base = f.Offset
	case 2: // SEEK_END
		base = int64(len(f.File.Data))
	default:
		return errno(EINVAL)
	}
	n := base + off
	if n < 0 {
		return errno(EINVAL)
	}
	f.Offset = n
	return ok(uint64(n))
}

func protFromLinux(p int) int {
	out := 0
	if p&1 != 0 {
		out |= mem.ProtRead
	}
	if p&2 != 0 {
		out |= mem.ProtWrite
	}
	if p&4 != 0 {
		out |= mem.ProtExec
	}
	return out
}

func (k *Kernel) sysMmap(c *Ctx, addr, length uint64, prot int, flags int64) Result {
	if length == 0 {
		return errno(EINVAL)
	}
	if k.Fault.Trigger(fault.MmapExhaust) {
		return errno(ENOMEM)
	}
	length = (length + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if flags&MapFixed != 0 {
		if addr&(mem.PageSize-1) != 0 {
			return errno(EINVAL)
		}
		c.Proc.AS.Map(addr, length, protFromLinux(prot))
		return ok(addr)
	}
	// Find a free range starting at MmapBase.
	base := c.Proc.MmapBase
	for {
		free := true
		for off := uint64(0); off < length; off += mem.PageSize {
			if c.Proc.AS.Mapped(base + off) {
				free = false
				base += mem.PageSize
				break
			}
		}
		if free {
			break
		}
		if base > c.Proc.MmapBase+1<<32 {
			return errno(ENOMEM)
		}
	}
	c.Proc.AS.Map(base, length, protFromLinux(prot))
	c.Proc.MmapBase = base + length
	return ok(base)
}

func (k *Kernel) sysBrk(c *Ctx, addr uint64) Result {
	p := c.Proc
	if p.BrkStart == 0 {
		return ok(p.Brk)
	}
	if addr == 0 {
		return ok(p.Brk)
	}
	if addr < p.BrkStart {
		return ok(p.Brk)
	}
	// Exhaustion injection: refuse to move the break, as a loaded host
	// kernel would.
	if addr > p.Brk && k.Fault.Trigger(fault.BrkExhaust) {
		return ok(p.Brk)
	}
	oldEnd := (p.Brk + mem.PageSize - 1) &^ (mem.PageSize - 1)
	newEnd := (addr + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if newEnd > oldEnd {
		p.AS.Map(oldEnd, newEnd-oldEnd, mem.ProtRW)
	} else if newEnd < oldEnd {
		p.AS.Unmap(newEnd, oldEnd-newEnd)
	}
	p.Brk = addr
	return ok(addr)
}

func (k *Kernel) sysGettimeofday(c *Ctx, tvAddr uint64) Result {
	now := k.Clock.Now(c.Icount)
	var tv [16]byte
	putU64(tv[0:], now/1_000_000_000)
	putU64(tv[8:], now%1_000_000_000/1_000)
	if err := c.Proc.AS.Write(tvAddr, tv[:]); err != nil {
		return errno(EFAULT)
	}
	return Result{MemWrites: []MemWrite{{Addr: tvAddr, Len: len(tv)}}}
}

func (k *Kernel) sysClockGettime(c *Ctx, tsAddr uint64) Result {
	now := k.Clock.Now(c.Icount)
	var ts [16]byte
	putU64(ts[0:], now/1_000_000_000)
	putU64(ts[8:], now%1_000_000_000)
	if err := c.Proc.AS.Write(tsAddr, ts[:]); err != nil {
		return errno(EFAULT)
	}
	return Result{MemWrites: []MemWrite{{Addr: tsAddr, Len: len(ts)}}}
}
