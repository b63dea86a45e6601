package coresim

import (
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/uarch"
	"elfie/internal/vm"
)

// syscallTimerTick is the pseudo-syscall number used for timer interrupts.
const syscallTimerTick = ^uint64(0)

// Kernel address-space layout for the synthetic ring-0 streams.
const (
	kernelTextBase = 0xffffffff81000000
	kernelTextSpan = 64 << 10 // hot kernel text per call class
	kernelDataBase = 0xffff888000000000
)

// kernelStream synthesizes deterministic ring-0 instruction streams per
// system call. Each call class has a path length and a data working set;
// the stream walks kernel text (polluting the I-cache and ITLB) and touches
// kernel data structures (polluting the D-cache and DTLB) — the mechanism
// behind Table IV's footprint and runtime inflation.
type kernelStream struct {
	lcg uint64
}

func newKernelStream() *kernelStream {
	return &kernelStream{lcg: 0x2545F4914F6CDD1D}
}

// profile returns (instructions, dataBytes, entryOffset) for a call. The
// data working set models the kernel structures (page cache, dentries,
// scheduler queues) each call class walks: large relative to its
// instruction count, which is what makes the OS footprint contribution
// disproportionate (Table IV).
func profile(num uint64, bytes int) (int, int, uint64) {
	switch num {
	case kernel.SysRead:
		return 1500 + bytes/8, 24576 + 2*bytes, 0x10000
	case kernel.SysWrite:
		return 1200 + bytes/8, 16384 + 2*bytes, 0x20000
	case kernel.SysOpen:
		return 2600, 49152, 0x30000
	case kernel.SysClose:
		return 600, 2048, 0x38000
	case kernel.SysMmap, kernel.SysMunmap, kernel.SysMprotect:
		return 1900, 32768, 0x40000
	case kernel.SysBrk:
		return 900, 8192, 0x48000
	case kernel.SysGettimeofday, kernel.SysClockGettime:
		return 260, 512, 0x50000 // vDSO-sized fast path
	case kernel.SysClone:
		return 4200, 65536, 0x60000
	case kernel.SysExit, kernel.SysExitGroup:
		return 2200, 32768, 0x70000
	case kernel.SysPerfOpen:
		return 3200, 32768, 0x80000
	case syscallTimerTick:
		return 800, 16384, 0x90000 // scheduler tick
	default:
		return 800, 4096, 0xa0000
	}
}

func (ks *kernelStream) rand() uint64 {
	ks.lcg = ks.lcg*6364136223846793005 + 1442695040888963407
	return ks.lcg >> 16
}

// emit feeds one call's synthetic kernel stream into a core. Kernel code
// paths are hot (small text, predictable branches) but walk data structures
// sequentially, so each call touches many unique cache lines at moderate
// cycle cost — interference comes from cache/TLB displacement rather than
// from the kernel instructions themselves being slow.
func (ks *kernelStream) emit(core *uarch.OOOCore, num uint64, bytes int) {
	n, ws, entry := profile(num, bytes)
	pc := uint64(kernelTextBase) + entry
	dataBase := uint64(kernelDataBase) + uint64(entry)<<8
	// Per-call cursor: successive calls of the same class walk different
	// parts of their structure space, growing the unique footprint.
	cursor := dataBase + (ks.rand()%16)*uint64(ws)
	seq := uint64(0)
	var rec vm.InsRecord
	for i := 0; i < n; i++ {
		rec = vm.InsRecord{PC: pc}
		d := uarch.DynInst{InsRecord: &rec, Kernel: true}
		switch r := ks.rand() % 10; {
		case r < 3: // sequential kernel structure walk
			d.Ins = isa.Inst{Op: isa.LDQ, A: 1, B: 2}
			d.Class = isa.ClassLoad
			d.MemR = true
			d.MemAddr = cursor + seq*32%uint64(ws)
			d.MemSize = 8
			seq++
		case r < 4: // kernel store
			d.Ins = isa.Inst{Op: isa.STQ, A: 1, B: 2}
			d.Class = isa.ClassStore
			d.MemW = true
			d.MemAddr = cursor + seq*32%uint64(ws)
			d.MemSize = 8
		case r < 6: // kernel branch: mostly-taken fast-path checks
			d.Ins = isa.Inst{Op: isa.JNZ}
			d.Class = isa.ClassBranch
			d.Branch = true
			d.Taken = ks.rand()%16 != 0
			// Short hops within the hot handler text.
			pc = kernelTextBase + uint64(entry) + (pc+64)%4096
		default:
			d.Ins = isa.Inst{Op: isa.ADD, A: 1, B: 2, C: 3}
			d.Class = isa.ClassALU
		}
		core.Consume(&d)
		pc += 8
	}
}
