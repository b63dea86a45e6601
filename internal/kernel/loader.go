package kernel

import (
	"fmt"

	"elfie/internal/elfobj"
	"elfie/internal/mem"
)

// Stack geometry. The loader places the stack top inside a randomized
// window, mirroring Linux stack randomization — which is what makes the
// paper's stack-collision problem probabilistic rather than certain.
const (
	StackSize = 1 << 20 // 1 MiB
	// StackAreaBase is the bottom of the address range the loader places
	// process stacks in. pinball2elf treats captured pages above it that
	// are not live stack as dead stack space (mapped zero at startup).
	StackAreaBase    = 0x7ffc00000000
	stackWindowBase  = StackAreaBase
	stackWindowPages = 16384 // 64 MiB randomization window
	// StackAreaSize is the extent of the stack placement area: the
	// randomization window plus the stack itself. A loadable ELFie segment
	// inside [StackAreaBase, StackAreaBase+StackAreaSize) re-creates the
	// stack-collision hazard, which is why pinball2elf marks captured
	// stack pages non-loadable and the static verifier rejects loadable
	// segments in this range.
	StackAreaSize = stackWindowPages*mem.PageSize + StackSize
	// MinStackPages is the least usable stack the loader will accept when
	// part of its chosen window is already occupied by ELFie image pages.
	// Below this, argument/environment setup does not fit and the process
	// is killed before the first instruction — the paper's ungraceful
	// loader death.
	MinStackPages = 4
)

// ErrStackCollision is returned when loadable segments overlap the loader's
// chosen stack so badly that the initial stack cannot be built.
var ErrStackCollision = fmt.Errorf("kernel: stack collision: initial stack does not fit")

// LoadResult describes a freshly loaded program.
type LoadResult struct {
	Entry    uint64
	SP       uint64
	StackLow uint64 // lowest mapped stack address
	StackTop uint64 // one past the highest stack address
}

// Load maps an executable into proc's address space, builds the initial
// stack (argc/argv/envp), and sets up the heap break. The stack base is
// randomized from the kernel's seed.
func (k *Kernel) Load(proc *Process, exe *elfobj.File, argv, envp []string) (*LoadResult, error) {
	if exe.Type != elfobj.ETExec {
		return nil, fmt.Errorf("kernel: not an executable")
	}
	segs := exe.LoadSegments()
	if len(segs) == 0 {
		return nil, fmt.Errorf("kernel: executable has no loadable segments")
	}
	var maxAddr uint64
	proc.ImageRegions = proc.ImageRegions[:0]
	for _, seg := range segs {
		if seg.Memsz == 0 {
			continue
		}
		prot := 0
		if seg.Flags&elfobj.PFR != 0 {
			prot |= mem.ProtRead
		}
		if seg.Flags&elfobj.PFW != 0 {
			prot |= mem.ProtWrite
		}
		if seg.Flags&elfobj.PFX != 0 {
			prot |= mem.ProtExec
		}
		proc.AS.Map(seg.Vaddr, seg.Memsz, prot)
		if len(seg.Data) > 0 {
			proc.AS.WriteNoFault(seg.Vaddr, seg.Data)
		}
		proc.ImageRegions = append(proc.ImageRegions, mem.Region{
			Addr: seg.Vaddr &^ (mem.PageSize - 1),
			Size: (seg.Vaddr + seg.Memsz + mem.PageSize - 1) &^ (mem.PageSize - 1),
			Prot: prot,
		})
		if end := seg.Vaddr + seg.Memsz; end > maxAddr && seg.Vaddr < stackWindowBase {
			maxAddr = end
		}
	}
	for i := range proc.ImageRegions {
		proc.ImageRegions[i].Size -= proc.ImageRegions[i].Addr
	}

	// Heap break starts one page after the highest non-stack segment.
	proc.BrkStart = (maxAddr + 2*mem.PageSize - 1) &^ (mem.PageSize - 1)
	proc.Brk = proc.BrkStart

	// Choose a randomized stack placement, then shrink it from the bottom
	// if image pages already occupy part of the chosen range.
	stackTop := uint64(stackWindowBase) + uint64(k.rng.Intn(stackWindowPages))*mem.PageSize + StackSize
	stackLow := stackTop - StackSize
	for stackLow < stackTop && pagesOccupied(proc.AS, stackLow, mem.PageSize) {
		stackLow += mem.PageSize
	}
	// The top pages must be free too: that is where argv/envp land.
	usable := (stackTop - stackLow) / mem.PageSize
	for p := stackLow; p < stackTop; p += mem.PageSize {
		if pagesOccupied(proc.AS, p, mem.PageSize) {
			usable--
		}
	}
	if usable < MinStackPages || pagesOccupied(proc.AS, stackTop-mem.PageSize, mem.PageSize) {
		return nil, ErrStackCollision
	}
	proc.AS.Map(stackLow, stackTop-stackLow, mem.ProtRW)

	sp, err := buildInitialStack(proc.AS, stackTop, argv, envp)
	if err != nil {
		return nil, err
	}
	return &LoadResult{Entry: exe.Entry, SP: sp, StackLow: stackLow, StackTop: stackTop}, nil
}

func pagesOccupied(as *mem.AddrSpace, addr, size uint64) bool {
	for p := addr; p < addr+size; p += mem.PageSize {
		if as.Mapped(p) {
			return true
		}
	}
	return false
}

// buildInitialStack lays out the System-V-style process stack:
//
//	[strings...]            <- near stack top
//	NULL
//	envp pointers
//	NULL
//	argv pointers
//	argc                    <- sp (16-byte aligned)
func buildInitialStack(as *mem.AddrSpace, stackTop uint64, argv, envp []string) (uint64, error) {
	p := stackTop
	writeStr := func(s string) (uint64, error) {
		p -= uint64(len(s) + 1)
		if err := as.Write(p, append([]byte(s), 0)); err != nil {
			return 0, err
		}
		return p, nil
	}
	argPtrs := make([]uint64, len(argv))
	for i := len(argv) - 1; i >= 0; i-- {
		a, err := writeStr(argv[i])
		if err != nil {
			return 0, err
		}
		argPtrs[i] = a
	}
	envPtrs := make([]uint64, len(envp))
	for i := len(envp) - 1; i >= 0; i-- {
		a, err := writeStr(envp[i])
		if err != nil {
			return 0, err
		}
		envPtrs[i] = a
	}
	p &^= 7
	// Vector: argc, argv..., NULL, envp..., NULL — laid out downwards.
	words := make([]uint64, 0, len(argv)+len(envp)+3)
	words = append(words, uint64(len(argv)))
	words = append(words, argPtrs...)
	words = append(words, 0)
	words = append(words, envPtrs...)
	words = append(words, 0)
	p -= uint64(len(words) * 8)
	p &^= 15 // ABI alignment
	for i, w := range words {
		if err := as.WriteU64(p+uint64(i*8), w); err != nil {
			return 0, err
		}
	}
	return p, nil
}
