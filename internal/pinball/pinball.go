// Package pinball defines the on-disk checkpoint format of the tool-chain.
//
// A pinball is a set of files that together capture a region of a program's
// execution, mirroring the PinPlay format the paper builds on:
//
//	<name>.global.log  JSON metadata (threads, region lengths, end condition,
//	                   integrity manifest)
//	<name>.text        memory image: (addr, prot, data) records
//	<name>.<tid>.reg   per-thread architectural registers, text format
//	<name>.sel         system-call side-effect injection log (JSON lines)
//	<name>.race        recorded thread schedule for constrained replay
//
// Fat pinballs (-log:fat) additionally contain every page mapped at region
// start, which is what pinball2elf needs to build a runnable ELFie.
//
// Save embeds a versioned manifest (per-file CRC32 + size) in the
// global.log; Read verifies it and reports failures through the typed
// errors ErrCorrupt, ErrTruncated and ErrVersionMismatch (see integrity.go).
// Pre-manifest pinballs still load, with Pinball.Unverified set.
package pinball

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"elfie/internal/fault"
	"elfie/internal/isa"
	"elfie/internal/mem"
	"elfie/internal/vm"
)

// Meta is the contents of the .global.log file.
type Meta struct {
	Version     int    `json:"version"`
	ProgramName string `json:"program"`
	NumThreads  int    `json:"num_threads"`
	// RegionLength[tid] is the number of instructions thread tid retired
	// inside the captured region — the expected instruction count that
	// drives graceful exit.
	RegionLength []uint64 `json:"region_length"`
	// TotalInstructions is the aggregate region length over all threads.
	TotalInstructions uint64 `json:"total_instructions"`
	// WarmupLength is the prefix of the region (in aggregate instructions)
	// used for microarchitectural warm-up rather than measurement.
	WarmupLength uint64 `json:"warmup_length"`
	// Fat records whether -log:fat was in effect.
	Fat bool `json:"fat"`
	// RegionStartIcount is the global instruction count at region start in
	// the original run.
	RegionStartIcount uint64 `json:"region_start_icount"`
	// EndPC/EndCount define the (PC, global execution count) end condition
	// used to stop multi-threaded simulations (paper §IV.B).
	EndPC    uint64 `json:"end_pc,omitempty"`
	EndCount uint64 `json:"end_count,omitempty"`
	// BrkStart/Brk are the heap bounds at region start (BRK.log source).
	BrkStart uint64 `json:"brk_start"`
	Brk      uint64 `json:"brk"`
	// StackRegions lists [lo,hi) address ranges identified as thread
	// stacks, which pinball2elf marks non-loadable.
	StackRegions [][2]uint64 `json:"stack_regions,omitempty"`
	// Manifest is the integrity record for the rest of the file set
	// (format version 2+); nil on legacy pinballs.
	Manifest *Manifest `json:"manifest,omitempty"`
	// Checkpoint, when non-nil, marks this pinball as a live mid-run
	// checkpoint (format version 3+) and carries the machine and kernel
	// state a resume needs beyond registers and memory; see checkpoint.go.
	Checkpoint *CheckpointMeta `json:"checkpoint,omitempty"`
}

// Page is one captured memory extent (a multiple of the page size).
type Page struct {
	Addr uint64
	Prot int
	Data []byte
}

// MemWriteData is one memory range written by an injected system call.
type MemWriteData struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data"`
}

// SyscallEffect is the logged outcome of one system call, in per-thread
// program order. During constrained replay the call is skipped and these
// effects are injected instead.
type SyscallEffect struct {
	TID int    `json:"tid"`
	Num uint64 `json:"num"`
	Ret uint64 `json:"ret"`
	// Args are the syscall arguments (r1..r5) at call time; the sysstate
	// analyzer reconstructs file state from them.
	Args [5]uint64 `json:"args"`
	// FSBase/GSBase are post-call segment bases when the call changed them.
	FSBase *uint64 `json:"fsbase,omitempty"`
	GSBase *uint64 `json:"gsbase,omitempty"`
	// MemWrites are the guest-memory side effects to inject.
	MemWrites []MemWriteData `json:"mem_writes,omitempty"`
	// Executed marks calls that must re-execute during replay rather than
	// be injected (clone/exit/exit_group).
	Executed bool `json:"executed,omitempty"`
}

// Pinball is an in-memory checkpoint.
type Pinball struct {
	Name     string
	Meta     Meta
	Pages    []Page
	Regs     []isa.RegFile // indexed by TID
	Syscalls []SyscallEffect
	Sched    []vm.SchedRecord
	// FS is the kernel filesystem image captured by a live checkpoint
	// (serialized as <name>.fs); nil on region-start pinballs.
	FS map[string][]byte
	// Unverified is set when the pinball predates the integrity manifest
	// (format version 1): it loaded, but its content was not CRC-checked.
	Unverified bool
}

// FindPage returns the captured page record covering addr, or nil.
func (p *Pinball) FindPage(addr uint64) *Page {
	for i := range p.Pages {
		pg := &p.Pages[i]
		if addr >= pg.Addr && addr < pg.Addr+uint64(len(pg.Data)) {
			return pg
		}
	}
	return nil
}

// ImageBytes returns the total size of the captured memory image.
func (p *Pinball) ImageBytes() uint64 {
	var n uint64
	for _, pg := range p.Pages {
		n += uint64(len(pg.Data))
	}
	return n
}

// SortPages orders the memory image by address and merges adjacent records
// with identical protections. Each merged record's size is found first, so
// its data is allocated once.
func (p *Pinball) SortPages() {
	pages := p.Pages
	sort.Slice(pages, func(i, j int) bool { return pages[i].Addr < pages[j].Addr })
	var out []Page
	for i := 0; i < len(pages); {
		j, size := i+1, len(pages[i].Data)
		for ; j < len(pages); j++ {
			prev := &pages[j-1]
			if prev.Addr+uint64(len(prev.Data)) != pages[j].Addr || pages[j].Prot != pages[i].Prot {
				break
			}
			size += len(pages[j].Data)
		}
		data := make([]byte, 0, size)
		for _, pg := range pages[i:j] {
			data = append(data, pg.Data...)
		}
		out = append(out, Page{Addr: pages[i].Addr, Prot: pages[i].Prot, Data: data})
		i = j
	}
	p.Pages = out
}

// FileSet renders the pinball's complete file set in memory — global.log
// included, byte-for-byte what Save writes to disk — stamping the current
// format version and an integrity manifest into the global.log. The
// rendering is deterministic, so content-addressed storage can hash it.
func (p *Pinball) FileSet() (map[string][]byte, error) {
	// Render every non-metadata file first, so the manifest can record
	// each one's digest.
	files := map[string][]byte{
		p.Name + ".text": p.textBytes(),
		p.Name + ".race": p.raceBytes(),
	}
	sel, err := p.selBytes()
	if err != nil {
		return nil, err
	}
	files[p.Name+".sel"] = sel
	for tid := range p.Regs {
		files[fmt.Sprintf("%s.%d.reg", p.Name, tid)] = []byte(FormatRegs(&p.Regs[tid]))
	}
	if p.Meta.Checkpoint != nil {
		fsData, err := json.MarshalIndent(p.FS, "", " ")
		if err != nil {
			return nil, err
		}
		files[p.Name+".fs"] = fsData
	}

	man := &Manifest{FormatVersion: FormatVersion, Files: make(map[string]FileDigest, len(files))}
	for name, data := range files {
		man.Files[name] = digest(data)
	}
	stamped := p.Meta
	stamped.Version = FormatVersion
	stamped.Manifest = man
	meta, err := json.MarshalIndent(&stamped, "", "  ")
	if err != nil {
		return nil, err
	}
	files[p.Name+".global.log"] = meta
	return files, nil
}

// Save writes the pinball into dir as the paper's file set, stamping the
// current format version and an integrity manifest into the global.log.
func (p *Pinball) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files, err := p.FileSet()
	if err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// .text record layout: a 20-byte header (address, length, protection,
// flags; little-endian) and then, unless the record is a zero run, length
// bytes of data. Records appear in extent order.
const textHeader = 20

// Record flags, the header's last word (format version 4+; always 0
// before).
const (
	// recZero marks a run of all-zero pages: length counts those bytes, a
	// positive multiple of the page size, and none of them follow.
	recZero = 1 << 0
	// recCont marks a record that continues the previous record's extent,
	// at the address where it ended and with its protection, instead of
	// starting a new extent.
	recCont  = 1 << 1
	recFlags = recZero | recCont
)

// maxImageBytes bounds the memory image a .text member may describe, so
// a corrupt zero-run length cannot drive a huge allocation. The largest
// workload image in the corpus is about 18 MB.
const maxImageBytes = 1 << 30

var zeroPage [mem.PageSize]byte

// AllZero reports whether b holds only zero bytes. It compares b against
// a zero page a page at a time, which is the one zero test both artifact
// formats use.
func AllZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// textRecord is one record of the .text member; data is the stretch of
// the extent it covers, which a zero run does not write.
type textRecord struct {
	addr  uint64
	prot  int
	flags uint32
	data  []byte
}

// zeroPageAt reports whether data holds a whole all-zero page at off.
func zeroPageAt(data []byte, off int) bool {
	return off+mem.PageSize <= len(data) && AllZero(data[off:off+mem.PageSize])
}

// textRecords splits every extent at page boundaries (counted from its
// start) into maximal runs of zero pages and of other bytes, one record
// per run. An extent's first record starts it and the rest continue it,
// so a reader rebuilds the extent list exactly, adjacent extents that
// were never merged included. A short final page is stored as data; an
// empty extent is one empty data record.
func (p *Pinball) textRecords() []textRecord {
	var recs []textRecord
	for _, pg := range p.Pages {
		if len(pg.Data) == 0 {
			recs = append(recs, textRecord{addr: pg.Addr, prot: pg.Prot})
			continue
		}
		var cont uint32
		for off := 0; off < len(pg.Data); {
			zero := zeroPageAt(pg.Data, off)
			end := off
			for end < len(pg.Data) && zeroPageAt(pg.Data, end) == zero {
				end = min(end+mem.PageSize, len(pg.Data))
			}
			flags := cont
			if zero {
				flags |= recZero
			}
			recs = append(recs, textRecord{
				addr: pg.Addr + uint64(off), prot: pg.Prot, flags: flags, data: pg.Data[off:end],
			})
			cont, off = recCont, end
		}
	}
	return recs
}

func (p *Pinball) textBytes() []byte {
	recs := p.textRecords()
	n := len(recs) * textHeader
	for _, r := range recs {
		if r.flags&recZero == 0 {
			n += len(r.data)
		}
	}
	out := make([]byte, 0, n)
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, r.addr)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.data)))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.prot))
		out = binary.LittleEndian.AppendUint32(out, r.flags)
		if r.flags&recZero == 0 {
			out = append(out, r.data...)
		}
	}
	return out
}

func (p *Pinball) raceBytes() []byte {
	var w bytes.Buffer
	var rec [12]byte
	for _, r := range p.Sched {
		binary.LittleEndian.PutUint32(rec[0:], uint32(r.TID))
		binary.LittleEndian.PutUint64(rec[4:], r.N)
		w.Write(rec[:])
	}
	return w.Bytes()
}

func (p *Pinball) selBytes() ([]byte, error) {
	var sel bytes.Buffer
	for i := range p.Syscalls {
		line, err := json.Marshal(&p.Syscalls[i])
		if err != nil {
			return nil, err
		}
		sel.Write(line)
		sel.WriteByte('\n')
	}
	return sel.Bytes(), nil
}

// ReadOptions configures Read.
type ReadOptions struct {
	// Fault, when non-nil, applies the injector's pinball corruption rules
	// (truncation, bit-flips) to each file's bytes as they are read —
	// the integrity layer's own test harness.
	Fault *fault.Injector
}

// Load reads a pinball named name from dir with default options.
func Load(dir, name string) (*Pinball, error) {
	return Read(dir, name, ReadOptions{})
}

// source abstracts where a pinball file set is read from: a directory on
// disk, or an in-memory map (e.g. a content-addressed store object).
// Missing files are reported with errors satisfying os.IsNotExist.
type source interface {
	read(fname string) ([]byte, error)
	// regTIDs lists the TIDs for which a <name>.<tid>.reg file is present.
	regTIDs(name string) ([]int, error)
}

// dirSource reads the pinball file set from a directory.
type dirSource struct{ dir string }

func (s dirSource) read(fname string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, fname))
}

func (s dirSource) regTIDs(name string) ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var tids []int
	for _, e := range entries {
		if tid, ok := regFileTID(name, e.Name()); ok {
			tids = append(tids, tid)
		}
	}
	return tids, nil
}

// mapSource reads the pinball file set from an in-memory map.
type mapSource map[string][]byte

func (s mapSource) read(fname string) ([]byte, error) {
	data, ok := s[fname]
	if !ok {
		return nil, &os.PathError{Op: "read", Path: fname, Err: os.ErrNotExist}
	}
	return data, nil
}

func (s mapSource) regTIDs(name string) ([]int, error) {
	var tids []int
	for fname := range s {
		if tid, ok := regFileTID(name, fname); ok {
			tids = append(tids, tid)
		}
	}
	return tids, nil
}

// regFileTID reports whether fname is a register file of pinball name,
// returning its TID.
func regFileTID(name, fname string) (int, bool) {
	if !strings.HasPrefix(fname, name+".") || !strings.HasSuffix(fname, ".reg") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(fname, name+"."), ".reg")
	tid, err := strconv.Atoi(mid)
	if err != nil {
		return 0, false // a different pinball's file, e.g. <name>.alt.0.reg
	}
	return tid, true
}

// Read reads a pinball named name from dir. Integrity failures are
// reported via the typed errors ErrCorrupt, ErrTruncated and
// ErrVersionMismatch (use errors.Is); pinballs written before the manifest
// era load with Unverified set.
func Read(dir, name string, opts ReadOptions) (*Pinball, error) {
	return readFrom(dirSource{dir}, name, opts)
}

// ReadFileSet parses a pinball named name from an in-memory file set (as
// produced by FileSet), with the same integrity verification as Read.
func ReadFileSet(name string, files map[string][]byte, opts ReadOptions) (*Pinball, error) {
	return readFrom(mapSource(files), name, opts)
}

func readFrom(src source, name string, opts ReadOptions) (*Pinball, error) {
	p := &Pinball{Name: name}

	readFile := func(fname string) ([]byte, error) {
		data, err := src.read(fname)
		if err != nil {
			return nil, err
		}
		return opts.Fault.CorruptFile(fname, data), nil
	}

	meta, err := readFile(name + ".global.log")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(meta, &p.Meta); err != nil {
		return nil, fmt.Errorf("%w: bad global.log: %v", ErrCorrupt, err)
	}
	if p.Meta.Version > FormatVersion {
		return nil, fmt.Errorf("%w: global.log declares format version %d, reader supports <= %d",
			ErrVersionMismatch, p.Meta.Version, FormatVersion)
	}
	man := p.Meta.Manifest
	if man != nil && man.FormatVersion > FormatVersion {
		return nil, fmt.Errorf("%w: manifest declares format version %d, reader supports <= %d",
			ErrVersionMismatch, man.FormatVersion, FormatVersion)
	}
	p.Unverified = man == nil
	if p.Meta.NumThreads < 0 || p.Meta.NumThreads > maxThreads {
		return nil, fmt.Errorf("%w: implausible thread count %d in global.log",
			ErrCorrupt, p.Meta.NumThreads)
	}
	if err := checkRegFiles(src, name, p.Meta.NumThreads); err != nil {
		return nil, err
	}

	// verified reads a member file and checks it against the manifest
	// before any parsing touches the bytes.
	verified := func(fname string) ([]byte, error) {
		data, err := readFile(fname)
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s missing from pinball file set", ErrTruncated, fname)
		}
		if err != nil {
			return nil, err
		}
		if man != nil {
			if err := man.verify(fname, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}

	text, err := verified(name + ".text")
	if err != nil {
		return nil, err
	}
	if err := p.loadText(text, p.Meta.Version, maxImageBytes); err != nil {
		return nil, err
	}
	p.Regs = make([]isa.RegFile, p.Meta.NumThreads)
	for tid := 0; tid < p.Meta.NumThreads; tid++ {
		data, err := verified(fmt.Sprintf("%s.%d.reg", name, tid))
		if err != nil {
			return nil, err
		}
		rf, err := ParseRegs(string(data))
		if err != nil {
			return nil, fmt.Errorf("%w: thread %d reg file: %v", ErrCorrupt, tid, err)
		}
		p.Regs[tid] = *rf
	}

	sel, err := verified(name + ".sel")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(sel), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e SyscallEffect
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%w: bad sel line: %v", ErrCorrupt, err)
		}
		p.Syscalls = append(p.Syscalls, e)
	}
	if p.Meta.Checkpoint != nil {
		fsData, err := verified(name + ".fs")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(fsData, &p.FS); err != nil {
			return nil, fmt.Errorf("%w: bad .fs member: %v", ErrCorrupt, err)
		}
	}
	race, err := verified(name + ".race")
	if err != nil {
		return nil, err
	}
	return p, p.loadRace(race)
}

// loadText parses the .text member of a pinball written at format
// version, refusing an image larger than limit bytes. A first pass checks
// every header and sizes each extent, so the image is bounded before
// anything is allocated and each extent's data is allocated once; the
// second fills it, expanding zero runs.
func (p *Pinball) loadText(data []byte, version, limit int) error {
	header := func(off int) (addr uint64, n, prot int, flags uint32) {
		return binary.LittleEndian.Uint64(data[off:]),
			int(binary.LittleEndian.Uint32(data[off+8:])),
			int(binary.LittleEndian.Uint32(data[off+12:])),
			binary.LittleEndian.Uint32(data[off+16:])
	}
	var sizes []int
	var total int
	var end uint64
	var prevProt int
	for off := 0; off < len(data); {
		if off+textHeader > len(data) {
			return fmt.Errorf("%w: .text header cut short at offset %d", ErrTruncated, off)
		}
		addr, n, prot, flags := header(off)
		switch {
		case flags != 0 && version < 4:
			return fmt.Errorf("%w: .text record at offset %d has flags %#x in a version-%d pinball",
				ErrCorrupt, off, flags, version)
		case flags&^recFlags != 0:
			return fmt.Errorf("%w: .text record at offset %d has unknown flags %#x", ErrCorrupt, off, flags)
		case flags&recZero != 0 && (n == 0 || n%mem.PageSize != 0):
			return fmt.Errorf("%w: .text zero run at offset %d is %d bytes, not a positive page multiple",
				ErrCorrupt, off, n)
		case flags&recCont != 0 && (len(sizes) == 0 || addr != end || prot != prevProt):
			return fmt.Errorf("%w: .text record at offset %d does not continue the extent before it",
				ErrCorrupt, off)
		}
		off += textHeader
		if flags&recZero == 0 {
			if off+n > len(data) {
				return fmt.Errorf("%w: .text data cut short at offset %d", ErrTruncated, off)
			}
			off += n
		}
		if total += n; total > limit {
			return fmt.Errorf("%w: .text describes more than %d bytes of memory", ErrCorrupt, limit)
		}
		if flags&recCont != 0 {
			sizes[len(sizes)-1] += n
		} else {
			sizes = append(sizes, n)
		}
		end, prevProt = addr+uint64(n), prot
	}

	p.Pages = make([]Page, 0, len(sizes))
	for off := 0; off < len(data); {
		addr, n, prot, flags := header(off)
		off += textHeader
		if flags&recCont == 0 {
			pg := Page{Addr: addr, Prot: prot}
			if size := sizes[len(p.Pages)]; size > 0 {
				pg.Data = make([]byte, 0, size)
			}
			p.Pages = append(p.Pages, pg)
		}
		pg := &p.Pages[len(p.Pages)-1]
		if flags&recZero != 0 {
			pg.Data = pg.Data[:len(pg.Data)+n] // make zeroed the capacity
			continue
		}
		pg.Data = append(pg.Data, data[off:off+n]...)
		off += n
	}
	return nil
}

func (p *Pinball) loadRace(data []byte) error {
	if len(data)%12 != 0 {
		return fmt.Errorf("%w: .race length %d not a record multiple", ErrCorrupt, len(data))
	}
	for off := 0; off < len(data); off += 12 {
		p.Sched = append(p.Sched, vm.SchedRecord{
			TID: int(binary.LittleEndian.Uint32(data[off:])),
			N:   binary.LittleEndian.Uint64(data[off+4:]),
		})
	}
	return nil
}

// FormatRegs renders a register file in the text .reg format:
// one "name value" pair per line, values in hex.
func FormatRegs(r *isa.RegFile) string {
	var b strings.Builder
	for i := 0; i < isa.NumGPR; i++ {
		fmt.Fprintf(&b, "%s 0x%x\n", isa.RegName(isa.Reg(i)), r.GPR[i])
	}
	fmt.Fprintf(&b, "pc 0x%x\n", r.PC)
	fmt.Fprintf(&b, "flags 0x%x\n", r.Flags)
	fmt.Fprintf(&b, "fsbase 0x%x\n", r.FSBase)
	fmt.Fprintf(&b, "gsbase 0x%x\n", r.GSBase)
	fmt.Fprintf(&b, "fpcr 0x%x\n", r.FPCR)
	for i := 0; i < isa.NumVReg; i++ {
		fmt.Fprintf(&b, "v%d.lo 0x%x\n", i, r.V[i][0])
		fmt.Fprintf(&b, "v%d.hi 0x%x\n", i, r.V[i][1])
	}
	return b.String()
}

// ParseRegs parses the text produced by FormatRegs.
func ParseRegs(text string) (*isa.RegFile, error) {
	r := &isa.RegFile{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want 'name value', got %q", ln+1, line)
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", ln+1, fields[1])
		}
		name := fields[0]
		switch {
		case name == "pc":
			r.PC = v
		case name == "flags":
			r.Flags = v
		case name == "fsbase":
			r.FSBase = v
		case name == "gsbase":
			r.GSBase = v
		case name == "fpcr":
			r.FPCR = v
		case strings.HasPrefix(name, "v") && strings.Contains(name, "."):
			dot := strings.Index(name, ".")
			idx, err := strconv.Atoi(name[1:dot])
			if err != nil || idx < 0 || idx >= isa.NumVReg {
				return nil, fmt.Errorf("line %d: bad vector register %q", ln+1, name)
			}
			switch name[dot+1:] {
			case "lo":
				r.V[idx][0] = v
			case "hi":
				r.V[idx][1] = v
			default:
				return nil, fmt.Errorf("line %d: bad vector half %q", ln+1, name)
			}
		default:
			reg, okReg := isa.ParseReg(name)
			if !okReg {
				return nil, fmt.Errorf("line %d: unknown register %q", ln+1, name)
			}
			r.GPR[reg] = v
		}
	}
	return r, nil
}
