package elfobj

import (
	"encoding/binary"
	"fmt"
	"sort"
)

var le = binary.LittleEndian

// stringTable builds an ELF string table: a NUL byte followed by
// NUL-terminated strings. It returns the table and the offset of each name.
type stringTable struct {
	data []byte
	off  map[string]uint32
}

func newStringTable() *stringTable {
	return &stringTable{data: []byte{0}, off: map[string]uint32{"": 0}}
}

func (st *stringTable) add(s string) uint32 {
	if o, ok := st.off[s]; ok {
		return o
	}
	o := uint32(len(st.data))
	st.data = append(st.data, s...)
	st.data = append(st.data, 0)
	st.off[s] = o
	return o
}

func align(x, a uint64) uint64 {
	if a <= 1 {
		return x
	}
	return (x + a - 1) &^ (a - 1)
}

// Write serializes the file into ELF64 binary form.
//
// For executables, PT_LOAD program headers are derived from the allocatable
// sections: one segment per maximal run of address-contiguous sections with
// identical permissions. Non-allocatable sections are present in the file
// (and the section header table) but not in any segment — this is what lets
// pinball2elf mark checkpointed stack pages as non-loadable to avoid the
// stack-collision problem. Write leaves f unchanged, so a File loads the
// same whether or not it was ever serialized.
func (f *File) Write() ([]byte, error) {
	// Assemble the final section list: user sections plus the generated
	// symbol/string/relocation sections.
	secs := make([]*Section, len(f.Sections))
	copy(secs, f.Sections)

	symstr := newStringTable()
	symtab, symIndex, err := f.buildSymtab(symstr)
	if err != nil {
		return nil, err
	}
	numLocal := 0
	for _, s := range f.symbolsSorted() {
		if s.Binding == STBLocal {
			numLocal++
		}
	}

	var relaSecs []*Section
	if len(f.Relocs) > 0 {
		names := make([]string, 0, len(f.Relocs))
		for name := range f.Relocs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			relocs := f.Relocs[name]
			if len(relocs) == 0 {
				continue
			}
			if f.sectionIndex(name) == SHNUndef {
				return nil, fmt.Errorf("elfobj: relocations for unknown section %q", name)
			}
			data := make([]byte, 0, len(relocs)*RelaSize)
			for _, r := range relocs {
				idx, ok := symIndex[r.Symbol]
				if !ok {
					return nil, fmt.Errorf("elfobj: relocation references unknown symbol %q", r.Symbol)
				}
				var e [RelaSize]byte
				le.PutUint64(e[0:], r.Offset)
				le.PutUint64(e[8:], uint64(idx)<<32|uint64(r.Type))
				le.PutUint64(e[16:], uint64(r.Addend))
				data = append(data, e[:]...)
			}
			relaSecs = append(relaSecs, &Section{
				Name:    ".rela" + name,
				Type:    SHTRela,
				Entsize: RelaSize,
				Data:    data,
				// Link and Info are fixed up below once indexes are known.
			})
		}
	}

	symtabSec := &Section{
		Name: ".symtab", Type: SHTSymtab, Entsize: SymSize,
		Data: symtab, Info: uint32(numLocal + 1), Addralign: 8,
	}
	strtabSec := &Section{Name: ".strtab", Type: SHTStrtab, Data: symstr.data}
	shstr := newStringTable()
	shstrtabSec := &Section{Name: ".shstrtab", Type: SHTStrtab}

	secs = append(secs, relaSecs...)
	secs = append(secs, symtabSec, strtabSec, shstrtabSec)

	// Section indexes within the final header table (0 = null entry).
	idxOf := func(name string) uint32 {
		for i, s := range secs {
			if s.Name == name {
				return uint32(i + 1)
			}
		}
		return 0
	}
	symtabSec.Link = idxOf(".strtab")
	for _, rs := range relaSecs {
		rs.Link = idxOf(".symtab")
		rs.Info = idxOf(rs.Name[len(".rela"):])
	}
	for _, s := range secs {
		shstr.add(s.Name)
	}
	shstrtabSec.Data = shstr.data

	// Derive program headers for executables.
	var segs []*Segment
	if f.Type == ETExec {
		segs = f.DeriveSegments()
	}

	// Lay out the file: header, program headers, section data, headers.
	off := uint64(EhdrSize)
	phoff := uint64(0)
	if len(segs) > 0 {
		phoff = off
		off += uint64(len(segs)) * PhdrSize
	}
	secOff := make([]uint64, len(secs))
	for i, s := range secs {
		if s.Type == SHTNobits {
			secOff[i] = off
			continue
		}
		a := s.Addralign
		if a == 0 {
			a = 1
		}
		off = align(off, a)
		secOff[i] = off
		off += uint64(len(s.Data))
	}
	shoff := align(off, 8)
	total := shoff + uint64(len(secs)+1)*ShdrSize

	buf := make([]byte, total)

	// ELF header.
	copy(buf, []byte{0x7f, 'E', 'L', 'F', ELFClass64, ELFData2LSB, EVCurrent, ELFOSABINone})
	le.PutUint16(buf[16:], f.Type)
	le.PutUint16(buf[18:], f.Machine)
	le.PutUint32(buf[20:], EVCurrent)
	le.PutUint64(buf[24:], f.Entry)
	le.PutUint64(buf[32:], phoff)
	le.PutUint64(buf[40:], shoff)
	le.PutUint32(buf[48:], 0) // flags
	le.PutUint16(buf[52:], EhdrSize)
	le.PutUint16(buf[54:], PhdrSize)
	le.PutUint16(buf[56:], uint16(len(segs)))
	le.PutUint16(buf[58:], ShdrSize)
	le.PutUint16(buf[60:], uint16(len(secs)+1))
	le.PutUint16(buf[62:], uint16(idxOf(".shstrtab")))

	// Program headers. Segment file offsets point at the owning section data.
	segOffset := func(seg *Segment) uint64 {
		for i, s := range secs {
			if s.Flags&SHFAlloc != 0 && s.Type != SHTNobits &&
				s.Addr <= seg.Vaddr && seg.Vaddr < s.Addr+uint64(len(s.Data)) {
				return secOff[i] + (seg.Vaddr - s.Addr)
			}
		}
		return 0
	}
	for i, seg := range segs {
		p := buf[phoff+uint64(i)*PhdrSize:]
		le.PutUint32(p[0:], seg.Type)
		le.PutUint32(p[4:], seg.Flags)
		le.PutUint64(p[8:], segOffset(seg))
		le.PutUint64(p[16:], seg.Vaddr)
		le.PutUint64(p[24:], seg.Vaddr) // paddr
		le.PutUint64(p[32:], seg.Filesz)
		le.PutUint64(p[40:], seg.Memsz)
		le.PutUint64(p[48:], seg.Align)
	}

	// Section data.
	for i, s := range secs {
		if s.Type != SHTNobits {
			copy(buf[secOff[i]:], s.Data)
		}
	}

	// Section header table. Entry 0 is the null header.
	for i, s := range secs {
		h := buf[shoff+uint64(i+1)*ShdrSize:]
		le.PutUint32(h[0:], shstr.add(s.Name))
		le.PutUint32(h[4:], s.Type)
		le.PutUint64(h[8:], s.Flags)
		le.PutUint64(h[16:], s.Addr)
		le.PutUint64(h[24:], secOff[i])
		le.PutUint64(h[32:], s.DataSize())
		le.PutUint32(h[40:], s.Link)
		le.PutUint32(h[44:], s.Info)
		le.PutUint64(h[48:], s.Addralign)
		le.PutUint64(h[56:], s.Entsize)
	}
	return buf, nil
}

// symbolsSorted returns the symbol list with locals before globals, as the
// ELF specification requires.
func (f *File) symbolsSorted() []Symbol {
	out := make([]Symbol, 0, len(f.Symbols))
	for _, s := range f.Symbols {
		if s.Binding == STBLocal {
			out = append(out, s)
		}
	}
	for _, s := range f.Symbols {
		if s.Binding != STBLocal {
			out = append(out, s)
		}
	}
	return out
}

// buildSymtab serializes the symbol table, adding undefined entries for
// symbols that relocations reference but the symbol list lacks.
func (f *File) buildSymtab(strtab *stringTable) ([]byte, map[string]uint32, error) {
	syms := f.symbolsSorted()
	have := make(map[string]bool, len(syms))
	for _, s := range syms {
		have[s.Name] = true
	}
	var extra []string
	for _, relocs := range f.Relocs {
		for _, r := range relocs {
			if !have[r.Symbol] {
				have[r.Symbol] = true
				extra = append(extra, r.Symbol)
			}
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		syms = append(syms, Symbol{Name: name, Binding: STBGlobal})
	}

	data := make([]byte, SymSize, (len(syms)+1)*SymSize) // entry 0 is null
	index := make(map[string]uint32, len(syms))
	for i, s := range syms {
		if _, dup := index[s.Name]; dup && s.Name != "" {
			return nil, nil, fmt.Errorf("elfobj: duplicate symbol %q", s.Name)
		}
		index[s.Name] = uint32(i + 1)
		var e [SymSize]byte
		le.PutUint32(e[0:], strtab.add(s.Name))
		e[4] = s.Binding<<4 | s.Type&0xf
		shndx := f.sectionIndex(s.Section)
		if s.Section != "" && s.Section != "*ABS*" && shndx == SHNUndef {
			return nil, nil, fmt.Errorf("elfobj: symbol %q in unknown section %q", s.Name, s.Section)
		}
		le.PutUint16(e[6:], shndx)
		le.PutUint64(e[8:], s.Value)
		le.PutUint64(e[16:], s.Size)
		data = append(data, e[:]...)
	}
	return data, index, nil
}

// DeriveSegments builds one PT_LOAD segment per allocatable section, in
// address order. Sections from a pinball memory image already coalesce
// consecutive pages, so the segment count stays proportional to the number
// of distinct mapped regions, not pages. Write calls this for executables,
// and LoadSegments for in-memory files that carry no program headers of
// their own. Derived segments reference section data directly.
func (f *File) DeriveSegments() []*Segment {
	var alloc []*Section
	for _, s := range f.Sections {
		if s.Flags&SHFAlloc != 0 && s.DataSize() > 0 {
			alloc = append(alloc, s)
		}
	}
	sort.SliceStable(alloc, func(i, j int) bool { return alloc[i].Addr < alloc[j].Addr })

	segs := make([]*Segment, 0, len(alloc))
	for _, s := range alloc {
		fl := uint32(PFR)
		if s.Flags&SHFWrite != 0 {
			fl |= PFW
		}
		if s.Flags&SHFExecinstr != 0 {
			fl |= PFX
		}
		filesz := uint64(0)
		if s.Type != SHTNobits {
			filesz = uint64(len(s.Data))
		}
		segs = append(segs, &Segment{
			Type: PTLoad, Flags: fl, Vaddr: s.Addr,
			Filesz: filesz, Memsz: s.DataSize(), Align: 0x1000,
			Data: s.Data,
		})
	}
	return segs
}
