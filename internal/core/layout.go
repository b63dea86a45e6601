package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"elfie/internal/asm"
	"elfie/internal/elfobj"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pinball"
)

// Thread-context block layout inside the .elfie.ctx section. The restore
// sequence in the generated startup code depends on these offsets: the
// XSAVE area is restored first, then segment bases, then the flags word and
// the GPRs are popped off the block with rsp pointed at ctxFlagsOff.
const (
	ctxXSaveOff = 0
	ctxFSOff    = isa.XSaveSize
	ctxGSOff    = isa.XSaveSize + 8
	ctxFlagsOff = isa.XSaveSize + 16
	ctxGPROff   = isa.XSaveSize + 24
	ctxSize     = isa.XSaveSize + 24 + 8*isa.NumGPR
	ctxStride   = 512 // ctxSize rounded up; one block per thread
)

// Startup-stack geometry: one slot for each application thread plus one for
// the monitor thread (used only with OnExit).
const startupStackSlot = 16 * 1024

// layout is the address plan for an ELFie.
type layout struct {
	// pages classified from the pinball image.
	textPages  []pinball.Page // non-stack captured memory
	stackPages []pinball.Page // live stack extents (non-loadable, remapped)
	deadPages  []pinball.Page // dead stack space (non-loadable, mapped zero)
	stageAddrs []uint64       // staging address per live stack extent

	elfieTextAddr uint64 // generated startup code
	elfieDataAddr uint64 // startup data (perf attrs, sysstate table)
	ctxAddr       uint64 // thread contexts
	stackSecAddr  uint64 // private startup stacks
	stackSecSize  uint64
	userBase      uint64 // floating base for user-source sections

	numThreads int
}

// pageClass classifies one address within a pinball image.
type pageClass int

const (
	classNormal pageClass = iota
	classLiveStack
	classDeadStack
)

func classify(meta *pinball.Meta, addr uint64) pageClass {
	for _, sr := range meta.StackRegions {
		if addr >= sr[0] && addr < sr[1] {
			return classLiveStack
		}
	}
	if addr >= kernel.StackAreaBase {
		// Inside the loader's stack area but not live: dead stack space
		// below the captured window. Loading it at its true address would
		// re-create the stack-collision problem, so it is mapped zero by
		// the startup code instead.
		return classDeadStack
	}
	return classNormal
}

// splitByClass cuts a page extent at classification boundaries.
func splitByClass(meta *pinball.Meta, pg pinball.Page) (normal, live, dead []pinball.Page) {
	start := uint64(0)
	n := uint64(len(pg.Data))
	cls := classify(meta, pg.Addr)
	flush := func(end uint64) {
		if end == start {
			return
		}
		part := pinball.Page{Addr: pg.Addr + start, Prot: pg.Prot, Data: pg.Data[start:end]}
		switch cls {
		case classLiveStack:
			live = append(live, part)
		case classDeadStack:
			dead = append(dead, part)
		default:
			normal = append(normal, part)
		}
		start = end
	}
	for off := uint64(0); off < n; off += mem.PageSize {
		if c := classify(meta, pg.Addr+off); c != cls {
			flush(off)
			cls = c
		}
	}
	flush(n)
	return normal, live, dead
}

// planLayout classifies pinball pages and picks collision-free addresses
// for the startup sections and stack staging areas.
func planLayout(pb *pinball.Pinball) (*layout, error) {
	lay := &layout{numThreads: len(pb.Regs)}
	var spans [][2]uint64
	for i := range pb.Pages {
		pg := pb.Pages[i]
		spans = append(spans, [2]uint64{pg.Addr, pg.Addr + uint64(len(pg.Data))})
		normal, live, dead := splitByClass(&pb.Meta, pg)
		lay.textPages = append(lay.textPages, normal...)
		lay.stackPages = append(lay.stackPages, live...)
		lay.deadPages = append(lay.deadPages, dead...)
	}
	// Keep clear of the kernel's stack randomization window.
	spans = append(spans, [2]uint64{kernel.StackAreaBase, kernel.StackAreaBase + kernel.StackAreaSize})

	cursor := uint64(0x20000000)
	pick := func(size uint64) uint64 {
		a := findFree(spans, cursor, size)
		spans = append(spans, [2]uint64{a, a + size})
		cursor = a + size
		return a
	}

	lay.elfieTextAddr = pick(1 << 20)
	lay.elfieDataAddr = pick(1 << 20)
	lay.ctxAddr = pick(uint64(lay.numThreads+1) * ctxStride)
	lay.stackSecSize = uint64(lay.numThreads+1) * startupStackSlot
	lay.stackSecAddr = pick(lay.stackSecSize)
	for _, pg := range lay.stackPages {
		lay.stageAddrs = append(lay.stageAddrs, pick(uint64(len(pg.Data))))
	}
	lay.userBase = pick(16 << 20)
	return lay, nil
}

// findFree returns the lowest page-aligned address >= start whose [a, a+size)
// range overlaps none of the spans.
func findFree(spans [][2]uint64, start, size uint64) uint64 {
	a := (start + mem.PageSize - 1) &^ (mem.PageSize - 1)
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	for {
		conflict := false
		for _, s := range spans {
			if a < s[1] && s[0] < a+size {
				conflict = true
				if s[1] > a {
					a = (s[1] + mem.PageSize - 1) &^ (mem.PageSize - 1)
				}
			}
		}
		if !conflict {
			return a
		}
	}
}

// stackTop returns the top of startup-stack slot i.
func (lay *layout) stackTop(i int) uint64 {
	return lay.stackSecAddr + uint64(i+1)*startupStackSlot
}

// ctx returns the context block address for thread i.
func (lay *layout) ctx(i int) uint64 { return lay.ctxAddr + uint64(i)*ctxStride }

// sectionNameFor maps a captured page extent to its ELFie section name.
func sectionNameFor(i int, prot int, stack bool) string {
	switch {
	case stack:
		return fmt.Sprintf(".stack.p%d", i)
	case prot&mem.ProtExec != 0:
		return fmt.Sprintf(".text.p%d", i)
	case prot&mem.ProtWrite == 0:
		return fmt.Sprintf(".rodata.p%d", i)
	default:
		return fmt.Sprintf(".data.p%d", i)
	}
}

func sectionFlags(prot int) uint64 {
	f := uint64(elfobj.SHFAlloc)
	if prot&mem.ProtWrite != 0 {
		f |= elfobj.SHFWrite
	}
	if prot&mem.ProtExec != 0 {
		f |= elfobj.SHFExecinstr
	}
	return f
}

// buildPinballObject creates the ELFie object file: one section per captured
// memory extent (SHT_NOBITS for an all-zero one that is neither executable
// nor live stack), stack extents duplicated into staging sections, the
// thread context block, and the startup stacks.
func buildPinballObject(pb *pinball.Pinball, lay *layout) *elfobj.File {
	obj := elfobj.NewObject()
	idx := 0
	for _, pg := range lay.textPages {
		sec := &elfobj.Section{
			Name: sectionNameFor(idx, pg.Prot, false), Type: elfobj.SHTProgbits,
			Flags: sectionFlags(pg.Prot), Addralign: mem.PageSize, Data: pg.Data,
		}
		// The static verifier decodes executable extents, so they keep
		// their bytes.
		if pg.Prot&mem.ProtExec == 0 {
			omitZeros(sec)
		}
		obj.AddSection(sec)
		idx++
	}
	for si, pg := range lay.stackPages {
		// Both copies of a live stack keep their bytes even when zero: the
		// startup code copies the staging one, and a NOBITS section there
		// would change the instructions that run before the ROI marker.
		// The true-address copy: present in the file, not loaded.
		obj.AddSection(&elfobj.Section{
			Name: sectionNameFor(idx, pg.Prot, true), Type: elfobj.SHTProgbits,
			Flags: sectionFlags(pg.Prot), Addralign: mem.PageSize, Data: pg.Data,
		})
		// The staging copy the startup code remaps from.
		obj.AddSection(&elfobj.Section{
			Name: fmt.Sprintf(".stage.p%d", si), Type: elfobj.SHTProgbits,
			Flags: elfobj.SHFAlloc | elfobj.SHFWrite, Addralign: mem.PageSize,
			Data: pg.Data,
		})
		idx++
	}
	for di, pg := range lay.deadPages {
		// Dead stack space: kept in the file for fidelity, never loaded;
		// the startup maps the range zero.
		obj.AddSection(omitZeros(&elfobj.Section{
			Name: fmt.Sprintf(".stack.dead.p%d", di), Type: elfobj.SHTProgbits,
			Flags: sectionFlags(pg.Prot), Addralign: mem.PageSize, Data: pg.Data,
		}))
	}

	// Thread contexts.
	ctx := make([]byte, (lay.numThreads+1)*ctxStride)
	for i, regs := range pb.Regs {
		packContext(ctx[i*ctxStride:], &regs)
	}
	obj.AddSection(&elfobj.Section{
		Name: ".elfie.ctx", Type: elfobj.SHTProgbits,
		Flags: elfobj.SHFAlloc | elfobj.SHFWrite, Addralign: 64, Data: ctx,
	})
	for i := 0; i < lay.numThreads; i++ {
		obj.Symbols = append(obj.Symbols, elfobj.Symbol{
			Name: fmt.Sprintf(".t%d.ctx", i), Value: uint64(i * ctxStride),
			Size: ctxSize, Binding: elfobj.STBGlobal, Type: elfobj.STTObject,
			Section: ".elfie.ctx",
		})
	}

	// Startup stacks (zero-filled).
	obj.AddSection(&elfobj.Section{
		Name: ".elfie.stack", Type: elfobj.SHTNobits,
		Flags: elfobj.SHFAlloc | elfobj.SHFWrite, Addralign: 16,
		Size: lay.stackSecSize,
	})
	return obj
}

// omitZeros turns an all-zero section into SHT_NOBITS with the same name,
// flags, address and size, as ELF carries .bss: its segment then has
// Filesz 0, and the loader maps the range zero-filled without the file
// holding its bytes.
func omitZeros(sec *elfobj.Section) *elfobj.Section {
	if pinball.AllZero(sec.Data) {
		sec.Type, sec.Size, sec.Data = elfobj.SHTNobits, uint64(len(sec.Data)), nil
	}
	return sec
}

// packContext serializes one thread's register state in the ctx layout.
func packContext(dst []byte, regs *isa.RegFile) {
	copy(dst[ctxXSaveOff:], isa.XSave(regs))
	binary.LittleEndian.PutUint64(dst[ctxFSOff:], regs.FSBase)
	binary.LittleEndian.PutUint64(dst[ctxGSOff:], regs.GSBase)
	binary.LittleEndian.PutUint64(dst[ctxFlagsOff:], regs.Flags)
	for i := 0; i < isa.NumGPR; i++ {
		binary.LittleEndian.PutUint64(dst[ctxGPROff+8*i:], regs.GPR[i])
	}
}

// script builds the linker script pinning every section of the ELFie.
func (lay *layout) script() *asm.Script {
	s := &asm.Script{Entry: "_start"}
	idx := 0
	for _, pg := range lay.textPages {
		s.Add(sectionNameFor(idx, pg.Prot, false), pg.Addr, false)
		idx++
	}
	for si, pg := range lay.stackPages {
		s.Add(sectionNameFor(idx, pg.Prot, true), pg.Addr, true) // NOLOAD
		s.Add(fmt.Sprintf(".stage.p%d", si), lay.stageAddrs[si], false)
		idx++
	}
	for di, pg := range lay.deadPages {
		s.Add(fmt.Sprintf(".stack.dead.p%d", di), pg.Addr, true) // NOLOAD
	}
	s.Add(".elfie.text", lay.elfieTextAddr, false)
	s.Add(".elfie.data", lay.elfieDataAddr, false)
	s.Add(".elfie.ctx", lay.ctxAddr, false)
	s.Add(".elfie.stack", lay.stackSecAddr, false)
	return s
}

// debugSymbols emits the .t<N>.<object> symbols pinball2elf documents for
// hex-level debugging, plus per-thread start markers.
func debugSymbols(pb *pinball.Pinball, lay *layout) []elfobj.Symbol {
	var syms []elfobj.Symbol
	abs := func(name string, v uint64) {
		syms = append(syms, elfobj.Symbol{
			Name: name, Value: v, Binding: elfobj.STBLocal,
			Type: elfobj.STTObject, Section: "*ABS*",
		})
	}
	for i, regs := range pb.Regs {
		base := lay.ctx(i)
		abs(fmt.Sprintf(".t%d.xsave", i), base+ctxXSaveOff)
		abs(fmt.Sprintf(".t%d.fsbase", i), base+ctxFSOff)
		abs(fmt.Sprintf(".t%d.gsbase", i), base+ctxGSOff)
		abs(fmt.Sprintf(".t%d.flags", i), base+ctxFlagsOff)
		for r := 0; r < isa.NumGPR; r++ {
			abs(fmt.Sprintf(".t%d.%s", i, isa.RegName(isa.Reg(r))), base+ctxGPROff+uint64(8*r))
		}
		abs(fmt.Sprintf("__elfie_t%d_start", i), regs.PC)
	}
	return syms
}

// contextsAsm renders the initial thread contexts as an assembly listing,
// mirroring pinball2elf's context-dump feature.
func contextsAsm(pb *pinball.Pinball) string {
	var b strings.Builder
	b.WriteString("\t.section .elfie.ctx, \"aw\"\n")
	for i, regs := range pb.Regs {
		fmt.Fprintf(&b, "# thread %d initial context\n", i)
		fmt.Fprintf(&b, ".t%d.ctx:\n", i)
		area := isa.XSave(&regs)
		for off := 0; off < len(area); off += 8 {
			fmt.Fprintf(&b, "\t.quad 0x%x\n", binary.LittleEndian.Uint64(area[off:]))
		}
		fmt.Fprintf(&b, "\t.quad 0x%x    # fsbase\n", regs.FSBase)
		fmt.Fprintf(&b, "\t.quad 0x%x    # gsbase\n", regs.GSBase)
		fmt.Fprintf(&b, "\t.quad 0x%x    # flags\n", regs.Flags)
		for r := 0; r < isa.NumGPR; r++ {
			fmt.Fprintf(&b, "\t.quad 0x%x    # %s\n", regs.GPR[r], isa.RegName(isa.Reg(r)))
		}
		fmt.Fprintf(&b, "\t.align %d\n", ctxStride)
	}
	return b.String()
}
