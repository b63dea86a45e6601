package elfobj

import (
	"sort"
	"strings"
)

// LoadSegments returns the file's PT_LOAD program headers sorted by virtual
// address. For an executable that has not been serialized yet (fresh from
// the linker), the program header table is derived from the allocatable
// sections — the same derivation Write performs — so the kernel loader and
// static analysis see the same segments for a File and its serialized
// form.
func (f *File) LoadSegments() []*Segment {
	segs := f.Segments
	if len(segs) == 0 && f.Type == ETExec {
		segs = f.DeriveSegments()
	}
	var out []*Segment
	for _, s := range segs {
		if s.Type == PTLoad {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vaddr < out[j].Vaddr })
	return out
}

// SegmentAt returns the PT_LOAD segment whose memory image covers addr, or
// nil.
func (f *File) SegmentAt(addr uint64) *Segment {
	for _, s := range f.LoadSegments() {
		if addr >= s.Vaddr && addr < s.Vaddr+s.Memsz {
			return s
		}
	}
	return nil
}

// SectionAt returns the allocatable section whose address range covers addr,
// or nil.
func (f *File) SectionAt(addr uint64) *Section {
	for _, s := range f.Sections {
		if s.Flags&SHFAlloc == 0 {
			continue
		}
		if addr >= s.Addr && addr < s.Addr+s.DataSize() {
			return s
		}
	}
	return nil
}

// SymbolsPrefix returns every symbol whose name starts with prefix, sorted
// by name — the accessor the static verifier uses to enumerate the
// generated per-thread restore stubs (__elfie_tN_init, __elfie_tN_target).
func (f *File) SymbolsPrefix(prefix string) []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReadAddr copies size bytes of section data starting at virtual address
// addr. It returns false when the range is not fully backed by one
// section's initialized data (SHT_NOBITS or out of range).
func (f *File) ReadAddr(addr, size uint64) ([]byte, bool) {
	sec := f.SectionAt(addr)
	if sec == nil || sec.Type == SHTNobits {
		return nil, false
	}
	off := addr - sec.Addr
	if off+size > uint64(len(sec.Data)) {
		return nil, false
	}
	return sec.Data[off : off+size], true
}
