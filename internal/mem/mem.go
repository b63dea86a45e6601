// Package mem implements the paged virtual address space of a PVM machine.
//
// Memory is organized in 4 KiB pages with read/write/execute protections.
// Accesses that touch unmapped pages or violate protections return a *Fault
// carrying the faulting address and access type; the emulated kernel turns
// these into the "ungraceful exit" the paper describes when an ELFie strays
// off its captured pages.
//
// Two mechanisms keep the hot paths fast without weakening the fault model:
//
//   - A small direct-mapped software TLB per access kind caches (page number
//     -> page) translations whose protection check already passed, so the
//     common in-page access skips the page-table map lookup entirely. The
//     TLB is flushed whenever the page table or protections change
//     (Map/Unmap).
//
//   - The TLB refill is also where first-touch tracking hooks in: while a
//     callback is armed (TrackFirstTouch), only pages already reported sit
//     in the data TLBs, so the refill sees every page's first guest read or
//     write and reports it before the access — the PinPlay logger's data-
//     page capture, with no per-access instrumentation.
//
//   - Every page carries a generation stamp drawn from a monotonic
//     address-space clock. The stamp changes whenever the page is (re)mapped
//     or — for executable pages — written. The VM's decoded-block cache keys
//     its entries on (page number, generation), so self-modifying code,
//     munmap/mmap recycling, and checkpoint-restore rewrites all invalidate
//     stale decoded instructions soundly.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the size of one page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Protection bits.
const (
	ProtRead  = 1
	ProtWrite = 2
	ProtExec  = 4
	ProtRW    = ProtRead | ProtWrite
	ProtRX    = ProtRead | ProtExec
	ProtRWX   = ProtRead | ProtWrite | ProtExec
)

// Access identifies the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "access?"
}

// Fault describes a failed memory access.
type Fault struct {
	Addr    uint64
	Access  Access
	Missing bool // page not mapped (vs. protection violation)
}

func (f *Fault) Error() string {
	why := "protection violation"
	if f.Missing {
		why = "page not mapped"
	}
	return fmt.Sprintf("mem: %s fault at %#x: %s", f.Access, f.Addr, why)
}

type page struct {
	data [PageSize]byte
	prot int
	// gen is the page's generation stamp: a unique value from the address
	// space's clock, refreshed on (re)map and on writes to executable pages.
	gen uint64
}

// Software TLB geometry: one direct-mapped array per access kind.
const (
	tlbBits = 6
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbEntry caches a translation whose protection check for its access kind
// already succeeded. A nil page marks the entry invalid.
type tlbEntry struct {
	pn uint64
	p  *page
}

// protNeed maps an access kind to the protection bit it requires.
var protNeed = [3]int{AccessRead: ProtRead, AccessWrite: ProtWrite, AccessExec: ProtExec}

// protUntracked is a protection bit no page carries (see AddrSpace.need).
const protUntracked = 8

// AddrSpace is one process's paged virtual address space.
type AddrSpace struct {
	pages map[uint64]*page // page number -> page
	// tlb holds per-access-kind direct-mapped translation caches.
	tlb [3][tlbSize]tlbEntry
	// clock is the monotonic generation source; it advances on every
	// mapping change and on every write that lands on an executable page.
	clock uint64
	// need is the protection bit pageFor requires per access kind:
	// protNeed, except that armed first-touch tracking sets the data kinds
	// to a bit no page carries, so their TLB misses leave pageFor for the
	// general path (pageForTouch).
	need [3]int
	// onTouch is the armed first-touch callback (nil = off) and touched
	// the pages it has reported (see TrackFirstTouch).
	onTouch func(base uint64)
	touched map[uint64]struct{}
	// kernel marks the accesses under way as the kernel's own copy-in and
	// copy-out (see SetKernelAccess).
	kernel bool
}

// NewAddrSpace returns an empty address space.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{pages: make(map[uint64]*page), need: protNeed}
}

// PageNum returns the page number containing addr.
func PageNum(addr uint64) uint64 { return addr >> PageShift }

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// pageFor translates pn for the given access kind through the TLB, filling
// on miss. It returns nil when the page is unmapped or lacks the required
// protection; the slow paths classify the fault. While first-touch
// tracking is armed, a data-TLB miss also returns nil (see need): every
// caller then takes the general path, access, which reports the page
// first.
func (as *AddrSpace) pageFor(pn uint64, kind Access) *page {
	e := &as.tlb[kind][pn&tlbMask]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	p := as.pages[pn]
	if p == nil || p.prot&as.need[kind] == 0 {
		return nil
	}
	e.pn, e.p = pn, p
	return p
}

// pageForTouch is pageFor on the general access path. While first-touch
// tracking is armed, a guest data access to a page not yet reported
// reports it first — even when the access is about to fault, as an
// instrumented access would — and a kernel access to such a page is
// served without a TLB fill, so the guest's own first access still misses
// and is reported.
func (as *AddrSpace) pageForTouch(pn uint64, kind Access) *page {
	if as.onTouch == nil || kind == AccessExec {
		return as.pageFor(pn, kind)
	}
	e := &as.tlb[kind][pn&tlbMask]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	if _, seen := as.touched[pn]; !seen {
		if as.kernel {
			return as.lookup(pn, kind)
		}
		as.touched[pn] = struct{}{}
		as.onTouch(pn << PageShift)
	}
	p := as.lookup(pn, kind)
	if p != nil {
		e.pn, e.p = pn, p
	}
	return p
}

// lookup returns page pn when it is mapped with the protection kind needs.
func (as *AddrSpace) lookup(pn uint64, kind Access) *page {
	p := as.pages[pn]
	if p == nil || p.prot&protNeed[kind] == 0 {
		return nil
	}
	return p
}

// TrackFirstTouch arms first-touch tracking: from now on fn is called with
// a page's base address before the first guest read or write that touches
// the page — every page of a page-straddling access, and also a page whose
// access then faults — once per page. Instruction fetches and the kernel's
// copy-in and copy-out (SetKernelAccess) are not reported. Arming flushes
// the TLB, so pages a run before it warmed are reported too; nil disarms.
func (as *AddrSpace) TrackFirstTouch(fn func(base uint64)) {
	as.onTouch, as.touched, as.need = fn, nil, protNeed
	if fn != nil {
		as.touched = make(map[uint64]struct{})
		as.need[AccessRead], as.need[AccessWrite] = protUntracked, protUntracked
	}
	as.flushTLB()
}

// SetKernelAccess marks the accesses that follow as the kernel's own
// copy-in and copy-out (true) or the guest's (false). Kernel accesses never
// fire the first-touch callback.
func (as *AddrSpace) SetKernelAccess(on bool) { as.kernel = on }

// flushTLB invalidates every cached translation (mapping or protection
// change).
func (as *AddrSpace) flushTLB() {
	as.tlb = [3][tlbSize]tlbEntry{}
}

// stamp gives p a fresh generation.
func (as *AddrSpace) stamp(p *page) {
	as.clock++
	p.gen = as.clock
}

// faultAt builds the fault for a failed access at addr.
func (as *AddrSpace) faultAt(addr uint64, kind Access) *Fault {
	return &Fault{Addr: addr, Access: kind, Missing: as.pages[PageNum(addr)] == nil}
}

// Map maps [addr, addr+size) with the given protections, zero-filling pages
// that were not previously mapped. Already-mapped pages in the range keep
// their contents but take the new protections — and a fresh generation, so
// decoded code cached for a remapped executable page can never run stale.
func (as *AddrSpace) Map(addr, size uint64, prot int) {
	if size == 0 {
		return
	}
	first := PageNum(addr)
	last := PageNum(addr + size - 1)
	for pn := first; pn <= last; pn++ {
		p := as.pages[pn]
		if p == nil {
			p = &page{}
			as.pages[pn] = p
		}
		p.prot = prot
		as.stamp(p)
	}
	as.flushTLB()
}

// Unmap removes all pages overlapping [addr, addr+size). The address-space
// clock still advances so generation consumers observe the change.
func (as *AddrSpace) Unmap(addr, size uint64) {
	if size == 0 {
		return
	}
	first := PageNum(addr)
	last := PageNum(addr + size - 1)
	for pn := first; pn <= last; pn++ {
		delete(as.pages, pn)
	}
	as.clock++
	as.flushTLB()
}

// Mapped reports whether the page containing addr is mapped.
func (as *AddrSpace) Mapped(addr uint64) bool {
	return as.pages[PageNum(addr)] != nil
}

// Prot returns the protection bits of the page containing addr (0 if
// unmapped).
func (as *AddrSpace) Prot(addr uint64) int {
	if p := as.pages[PageNum(addr)]; p != nil {
		return p.prot
	}
	return 0
}

// Clock returns the address-space generation clock. It advances on every
// mapping change and every write to an executable page; the VM's block
// executor snapshots it to detect self-modification during a cached run.
func (as *AddrSpace) Clock() uint64 { return as.clock }

// ExecGen returns the generation of the page containing addr if it is
// mapped executable. The lookup is TLB-backed: it is the per-block validity
// check of the decoded-block cache and must stay cheap.
func (as *AddrSpace) ExecGen(addr uint64) (uint64, bool) {
	p := as.pageFor(PageNum(addr), AccessExec)
	if p == nil {
		return 0, false
	}
	return p.gen, true
}

// ExecWindow returns the executable bytes from addr to the end of its page,
// with the page's generation. The slice aliases live page memory and is only
// valid until the next mutation; the block predecoder consumes it
// immediately. A non-executable or unmapped addr returns a *Fault.
func (as *AddrSpace) ExecWindow(addr uint64) ([]byte, uint64, error) {
	p := as.pageFor(PageNum(addr), AccessExec)
	if p == nil {
		return nil, 0, as.faultAt(addr, AccessExec)
	}
	return p.data[addr&(PageSize-1):], p.gen, nil
}

// Read copies len(buf) bytes from addr into buf.
func (as *AddrSpace) Read(addr uint64, buf []byte) error {
	return as.access(addr, buf, AccessRead)
}

// Write copies buf to addr.
func (as *AddrSpace) Write(addr uint64, buf []byte) error {
	return as.access(addr, buf, AccessWrite)
}

// Fetch copies len(buf) bytes of instruction memory from addr into buf.
func (as *AddrSpace) Fetch(addr uint64, buf []byte) error {
	// Fast path for the in-page instruction-word fetch the interpreter
	// issues for every instruction.
	off := addr & (PageSize - 1)
	if n := uint64(len(buf)); off+n <= PageSize {
		if p := as.pageFor(PageNum(addr), AccessExec); p != nil {
			copy(buf, p.data[off:off+n])
			return nil
		}
	}
	return as.access(addr, buf, AccessExec)
}

// access is the general multi-page copy path. Ranges that span pages are
// pre-validated so an access that would fault on a later page has no effect
// at all: previously a multi-page write could tear, mutating earlier pages
// before faulting on a later one.
func (as *AddrSpace) access(addr uint64, buf []byte, kind Access) error {
	if len(buf) == 0 {
		return nil
	}
	first := PageNum(addr)
	last := PageNum(addr + uint64(len(buf)) - 1)
	if first != last {
		for pn := first; pn <= last; pn++ {
			if as.pageForTouch(pn, kind) == nil {
				fa := pn << PageShift
				if pn == first {
					fa = addr
				}
				return as.faultAt(fa, kind)
			}
		}
	}
	for done := 0; done < len(buf); {
		pn := PageNum(addr)
		p := as.pageForTouch(pn, kind)
		if p == nil {
			return as.faultAt(addr, kind)
		}
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf)-done {
			n = len(buf) - done
		}
		if kind == AccessWrite {
			copy(p.data[off:off+n], buf[done:done+n])
			if p.prot&ProtExec != 0 {
				as.stamp(p) // self-modifying code: invalidate decoded blocks
			}
		} else {
			copy(buf[done:done+n], p.data[off:off+n])
		}
		addr += uint64(n)
		done += n
	}
	return nil
}

// LoadFast reads a little-endian value of the given size (1, 2, 4, or 8
// bytes) entirely within one page, through the read TLB. It reports ok=false
// — without touching memory — when the access crosses a page boundary or the
// page is unmapped or unreadable; callers then take the faulting slow path.
func (as *AddrSpace) LoadFast(addr uint64, size int) (uint64, bool) {
	off := addr & (PageSize - 1)
	if off+uint64(size) > PageSize {
		return 0, false
	}
	p := as.pageFor(PageNum(addr), AccessRead)
	if p == nil {
		return 0, false
	}
	b := p.data[off:]
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), true
	default:
		return uint64(b[0]), true
	}
}

// StoreFast writes the low `size` bytes of v little-endian entirely within
// one page, through the write TLB. ok=false means the caller must take the
// faulting slow path; no memory was modified.
func (as *AddrSpace) StoreFast(addr, v uint64, size int) bool {
	off := addr & (PageSize - 1)
	if off+uint64(size) > PageSize {
		return false
	}
	p := as.pageFor(PageNum(addr), AccessWrite)
	if p == nil {
		return false
	}
	b := p.data[off:]
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		b[0] = byte(v)
	}
	if p.prot&ProtExec != 0 {
		as.stamp(p)
	}
	return true
}

// ReadPage returns a direct handle on the data of the readable page
// containing addr, or nil if the page is unmapped or unreadable. The block
// executor caches the returned pointer as a thread-local TLB head; the
// pointer stays coherent with every other access path (pages are never
// reallocated in place), but the *mapping* may change, so cached handles
// must be dropped whenever the address-space clock advances or a syscall
// runs.
func (as *AddrSpace) ReadPage(addr uint64) *[PageSize]byte {
	if p := as.pageFor(addr>>PageShift, AccessRead); p != nil {
		return &p.data
	}
	return nil
}

// WritePage is ReadPage for stores. Executable pages always return nil —
// even when writable — so every store that could be self-modifying code is
// forced through StoreFast/Write, which stamp the page generation and
// advance the clock. Cached handles therefore never bypass SMC detection.
func (as *AddrSpace) WritePage(addr uint64) *[PageSize]byte {
	p := as.pageFor(PageNum(addr), AccessWrite)
	if p == nil || p.prot&ProtExec != 0 {
		return nil
	}
	return &p.data
}

// ReadU64 reads a little-endian uint64 at addr.
func (as *AddrSpace) ReadU64(addr uint64) (uint64, error) {
	if v, ok := as.LoadFast(addr, 8); ok {
		return v, nil
	}
	var b [8]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 at addr.
func (as *AddrSpace) WriteU64(addr, v uint64) error {
	if as.StoreFast(addr, v, 8) {
		return nil
	}
	var b [8]byte
	putU64(b[:], v)
	return as.Write(addr, b[:])
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

// ReadNoFault copies up to len(buf) bytes starting at addr, ignoring
// protections and stopping at the first unmapped page. It returns the number
// of bytes copied. Instrumentation and checkpointing use it to observe
// memory without perturbing fault behaviour.
func (as *AddrSpace) ReadNoFault(addr uint64, buf []byte) int {
	done := 0
	for done < len(buf) {
		p := as.pages[PageNum(addr)]
		if p == nil {
			break
		}
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf)-done {
			n = len(buf) - done
		}
		copy(buf[done:done+n], p.data[off:off+n])
		addr += uint64(n)
		done += n
	}
	return done
}

// WriteNoFault writes buf at addr ignoring protections, mapping missing
// pages read-write. Checkpoint restore and syscall side-effect injection
// use it — both can rewrite executable pages, so it participates in
// generation bumping like any other write.
func (as *AddrSpace) WriteNoFault(addr uint64, buf []byte) {
	for done := 0; done < len(buf); {
		pn := PageNum(addr)
		p := as.pages[pn]
		if p == nil {
			p = &page{prot: ProtRW}
			as.pages[pn] = p
			as.stamp(p)
		}
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf)-done {
			n = len(buf) - done
		}
		copy(p.data[off:off+n], buf[done:done+n])
		if p.prot&ProtExec != 0 {
			as.stamp(p)
		}
		addr += uint64(n)
		done += n
	}
}

// Region is a maximal run of consecutive mapped pages with one protection.
type Region struct {
	Addr uint64
	Size uint64
	Prot int
}

// Regions returns all mapped memory as sorted, coalesced regions.
func (as *AddrSpace) Regions() []Region {
	pns := make([]uint64, 0, len(as.pages))
	for pn := range as.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var out []Region
	for _, pn := range pns {
		p := as.pages[pn]
		addr := pn << PageShift
		if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Size == addr && out[n-1].Prot == p.prot {
			out[n-1].Size += PageSize
			continue
		}
		out = append(out, Region{Addr: addr, Size: PageSize, Prot: p.prot})
	}
	return out
}

// PageData returns a copy of the page containing addr, or nil if unmapped.
func (as *AddrSpace) PageData(addr uint64) []byte {
	p := as.pages[PageNum(addr)]
	if p == nil {
		return nil
	}
	out := make([]byte, PageSize)
	copy(out, p.data[:])
	return out
}

// NumPages returns the number of mapped pages.
func (as *AddrSpace) NumPages() int { return len(as.pages) }

// Clone returns a deep copy of the address space (generations included, so
// a clone's consumers see the same validity horizon; the TLB starts cold).
func (as *AddrSpace) Clone() *AddrSpace {
	c := NewAddrSpace()
	c.clock = as.clock
	for pn, p := range as.pages {
		np := &page{prot: p.prot, gen: p.gen}
		np.data = p.data
		c.pages[pn] = np
	}
	return c
}
