// Package uarch provides the microarchitectural building blocks shared by
// the timing simulators: set-associative caches with a shared-L3 coherence
// directory, TLBs, a gshare branch predictor, a next-line prefetcher, and
// two core timing engines — a fast interval model (Sniper-style) and a
// detailed out-of-order scoreboard model (CoreSim/gem5-style).
package uarch

import "fmt"

// CacheCfg configures one cache level.
type CacheCfg struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	LatCycles int // hit latency
}

// Standard line size used by every configuration.
const LineBytes = 64

// validBit marks a live entry in a Cache or TLB tag array. Entries hold a
// line (or page) number, which never reaches bit 63, so an entry with the
// bit clear is an invalid way: it keeps its tag and its recency slot, and
// leaves the set only by aging out of the LRU end, as a live way does.
const validBit = 1 << 63

// Cache is one set-associative, LRU cache level. Its tag store is one
// contiguous array of nsets*ways entries; each set's ways are kept in
// recency order, MRU first, so a hit on the MRU way costs one compare and
// the LRU victim is always the set's last entry.
type Cache struct {
	cfg  CacheCfg
	tags []uint64
	ways int
	// nsets is the set count; sets are indexed by line & setMask when it
	// is a power of two, and by line % nsets otherwise.
	nsets    uint64
	setMask  uint64
	pow2     bool
	shift    uint
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache from its configuration. Lines must be at least
// two bytes, so a line number never reaches validBit.
func NewCache(cfg CacheCfg) *Cache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = LineBytes
	}
	if cfg.LineBytes < 2 {
		panic("uarch: cache lines must be at least 2 bytes")
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, nsets*cfg.Ways),
		ways:    cfg.Ways,
		nsets:   uint64(nsets),
		setMask: uint64(nsets - 1),
		pow2:    nsets&(nsets-1) == 0,
	}
	for s := uint(0); 1<<s < cfg.LineBytes; s++ {
		c.shift = s + 1
	}
	return c
}

// Line returns the line address (addr with offset bits cleared).
func (c *Cache) line(addr uint64) uint64 { return addr >> c.shift }

// set returns the ways of the set line ln maps to, MRU first.
func (c *Cache) set(ln uint64) []uint64 {
	idx := ln & c.setMask
	if !c.pow2 {
		idx = ln % c.nsets
	}
	base := int(idx) * c.ways
	return c.tags[base : base+c.ways : base+c.ways]
}

// Lookup probes the cache without fill. Returns hit.
func (c *Cache) Lookup(addr uint64) bool {
	ln := c.line(addr)
	e := ln | validBit
	for _, v := range c.set(ln) {
		if v == e {
			return true
		}
	}
	return false
}

// Access probes the cache and fills on miss (LRU replacement). It returns
// true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	ln := c.line(addr)
	if !touchLRU(c.set(ln), ln|validBit) {
		c.Misses++
		return false
	}
	return true
}

// touchLRU makes entry e the MRU of the recency-ordered ways and reports
// whether it was already there: a hit moves it to the front, a miss
// shifts every way down one slot, evicting the last (LRU) way.
func touchLRU(ways []uint64, e uint64) bool {
	if ways[0] == e {
		return true
	}
	w := 1
	for w < len(ways) && ways[w] != e {
		w++
	}
	hit := w < len(ways)
	if !hit {
		w--
	}
	copy(ways[1:w+1], ways[:w])
	ways[0] = e
	return hit
}

// Invalidate removes a line if present.
func (c *Cache) Invalidate(addr uint64) {
	ln := c.line(addr)
	set := c.set(ln)
	for w, v := range set {
		if v == ln|validBit {
			set[w] = ln
			return
		}
	}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// HierarchyCfg configures a multicore cache hierarchy.
type HierarchyCfg struct {
	L1I, L1D, L2 CacheCfg // private per core
	L3           CacheCfg // shared
	MemLatency   int      // DRAM access cycles
	// Prefetch enables a next-line prefetcher at L2.
	Prefetch bool
}

// MaxCores is the largest core count a Hierarchy tracks: its coherence
// directory keeps one owner bit per core in a uint32.
const MaxCores = 32

// Hierarchy is a multicore cache hierarchy with a simple invalidation-based
// coherence directory over the private levels.
type Hierarchy struct {
	cfg   HierarchyCfg
	cores int
	l1i   []*Cache
	l1d   []*Cache
	l2    []*Cache
	L3    *Cache
	// pages holds the per-page data-line bookkeeping (footprint and
	// coherence owners); recent memoizes pages direct-mapped by page
	// number, so a stream that alternates among a few pages (stack,
	// heap, globals) stays out of the map.
	pages  map[uint64]*linePage
	recent [recentPages]pageSlot
	// lines counts the unique data lines touched (the footprint).
	lines int

	// Stats.
	Invalidations  uint64
	PrefetchIssued uint64
}

// Data-line bookkeeping granularity: 64-byte lines in 4 KiB pages.
const (
	dataLineShift = 6
	dataPageShift = 12
	linesPerPage  = 1 << (dataPageShift - dataLineShift)
)

// recentPages is the size of the Hierarchy's direct-mapped page memo.
const recentPages = 64

// pageSlot is one entry of the page memo.
type pageSlot struct {
	pn uint64
	p  *linePage
}

// linePage is the bookkeeping of the data lines in one 4 KiB page: which
// lines were touched (bit i of touched for line i) and, with more than one
// core, which cores may hold each line in their private caches.
type linePage struct {
	touched uint64
	owners  [linesPerPage]uint32
}

// NewHierarchy builds a hierarchy for the given core count, which must not
// exceed MaxCores.
func NewHierarchy(cfg HierarchyCfg, cores int) *Hierarchy {
	if cores > MaxCores {
		panic(fmt.Sprintf("uarch: %d cores exceed the coherence directory's %d", cores, MaxCores))
	}
	h := &Hierarchy{
		cfg: cfg, cores: cores,
		L3:    NewCache(cfg.L3),
		pages: make(map[uint64]*linePage),
	}
	for i := 0; i < cores; i++ {
		h.l1i = append(h.l1i, NewCache(cfg.L1I))
		h.l1d = append(h.l1d, NewCache(cfg.L1D))
		h.l2 = append(h.l2, NewCache(cfg.L2))
	}
	return h
}

// L1IFor returns core i's L1 instruction cache (for stats).
func (h *Hierarchy) L1IFor(core int) *Cache { return h.l1i[core] }

// L1DFor returns core i's L1 data cache (for stats).
func (h *Hierarchy) L1DFor(core int) *Cache { return h.l1d[core] }

// L2For returns core i's L2 cache (for stats).
func (h *Hierarchy) L2For(core int) *Cache { return h.l2[core] }

// FootprintLines returns the number of unique data lines touched.
func (h *Hierarchy) FootprintLines() int { return h.lines }

// FootprintBytes returns the data footprint in bytes.
func (h *Hierarchy) FootprintBytes() uint64 { return uint64(h.lines) * LineBytes }

// page returns the bookkeeping of the page holding addr.
func (h *Hierarchy) page(addr uint64) *linePage {
	pn := addr >> dataPageShift
	slot := &h.recent[pn%recentPages]
	if slot.p != nil && slot.pn == pn {
		return slot.p
	}
	p := h.pages[pn]
	if p == nil {
		p = new(linePage)
		h.pages[pn] = p
	}
	slot.pn, slot.p = pn, p
	return p
}

// AccessData performs a data access from a core and returns its latency.
func (h *Hierarchy) AccessData(core int, addr uint64, write bool) int {
	return h.accessData(core, h.l1d[core], h.l2[core], addr, write)
}

// accessData is AccessData for a core that holds its private caches by
// pointer. With one core the coherence directory is skipped: it is only
// read to invalidate other cores' copies.
func (h *Hierarchy) accessData(core int, l1d, l2 *Cache, addr uint64, write bool) int {
	p := h.page(addr)
	i := addr >> dataLineShift & (linesPerPage - 1)
	if p.touched&(1<<i) == 0 {
		p.touched |= 1 << i
		h.lines++
	}
	if h.cores > 1 {
		own := &p.owners[i]
		if write {
			// Invalidate other cores' private copies.
			if mask := *own; mask != 0 {
				for c := 0; c < h.cores; c++ {
					if c != core && mask&(1<<uint(c)) != 0 {
						h.l1d[c].Invalidate(addr)
						h.l2[c].Invalidate(addr)
						h.Invalidations++
					}
				}
			}
			*own = 1 << uint(core)
		} else {
			*own |= 1 << uint(core)
		}
	}

	if l1d.Access(addr) {
		return h.cfg.L1D.LatCycles
	}
	if l2.Access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.cfg.Prefetch {
		h.PrefetchIssued++
		l2.Access(addr + LineBytes)
		h.L3.Access(addr + LineBytes)
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}

// AccessCode performs an instruction fetch from a core.
func (h *Hierarchy) AccessCode(core int, addr uint64) int {
	return h.accessCode(h.l1i[core], h.l2[core], addr)
}

// accessCode is AccessCode for a core that holds its private caches by
// pointer.
func (h *Hierarchy) accessCode(l1i, l2 *Cache, addr uint64) int {
	if l1i.Access(addr) {
		return h.cfg.L1I.LatCycles
	}
	if l2.Access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}
