package uarch

import (
	"math/rand"
	"testing"
)

// This file checks the contiguous-array Cache, the TLB and the Hierarchy's
// paged bookkeeping against a reference copy of the slice-shifting models
// they replaced: per-set tag and valid slices in recency order, coherence
// owners and footprint in hash maps. Timing results are contractually
// cycle-identical, so every access must hit or miss exactly as before.

// refSet is one reference cache set: tags and valid bits, index 0 = MRU.
type refSet struct {
	tags []uint64
	vals []bool
}

// refCache is the reference set-associative LRU cache. It indexes sets by
// modulo, which equals the old mask for every power-of-two set count.
type refCache struct {
	cfg              CacheCfg
	sets             []refSet
	shift            uint
	accesses, misses uint64
}

func newRefCache(cfg CacheCfg) *refCache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = LineBytes
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	c := &refCache{cfg: cfg, sets: make([]refSet, nsets)}
	for i := range c.sets {
		c.sets[i] = refSet{tags: make([]uint64, cfg.Ways), vals: make([]bool, cfg.Ways)}
	}
	for s := uint(0); 1<<s < cfg.LineBytes; s++ {
		c.shift = s + 1
	}
	return c
}

func (c *refCache) set(addr uint64) (*refSet, uint64) {
	ln := addr >> c.shift
	return &c.sets[ln%uint64(len(c.sets))], ln
}

func (c *refCache) lookup(addr uint64) bool {
	set, ln := c.set(addr)
	for w := range set.tags {
		if set.vals[w] && set.tags[w] == ln {
			return true
		}
	}
	return false
}

func (c *refCache) access(addr uint64) bool {
	c.accesses++
	set, ln := c.set(addr)
	for w := range set.tags {
		if set.vals[w] && set.tags[w] == ln {
			copy(set.tags[1:w+1], set.tags[:w])
			copy(set.vals[1:w+1], set.vals[:w])
			set.tags[0], set.vals[0] = ln, true
			return true
		}
	}
	c.misses++
	copy(set.tags[1:], set.tags[:len(set.tags)-1])
	copy(set.vals[1:], set.vals[:len(set.vals)-1])
	set.tags[0], set.vals[0] = ln, true
	return false
}

func (c *refCache) invalidate(addr uint64) {
	set, ln := c.set(addr)
	for w := range set.tags {
		if set.vals[w] && set.tags[w] == ln {
			set.vals[w] = false
			return
		}
	}
}

// refTLB is the reference fully-associative LRU TLB.
type refTLB struct {
	entries          []uint64
	valid            []bool
	walk             int
	accesses, misses uint64
}

func (t *refTLB) access(addr uint64) int {
	t.accesses++
	page := addr >> 12
	for i := range t.entries {
		if t.valid[i] && t.entries[i] == page {
			copy(t.entries[1:i+1], t.entries[:i])
			copy(t.valid[1:i+1], t.valid[:i])
			t.entries[0], t.valid[0] = page, true
			return 0
		}
	}
	t.misses++
	copy(t.entries[1:], t.entries[:len(t.entries)-1])
	copy(t.valid[1:], t.valid[:len(t.valid)-1])
	t.entries[0], t.valid[0] = page, true
	return t.walk
}

// refHierarchy is the reference hierarchy: owners and footprint in maps,
// the directory updated on every access whatever the core count.
type refHierarchy struct {
	cfg           HierarchyCfg
	cores         int
	l1i, l1d, l2  []*refCache
	l3            *refCache
	owners        map[uint64]uint32
	footprint     map[uint64]struct{}
	invalidations uint64
}

func newRefHierarchy(cfg HierarchyCfg, cores int) *refHierarchy {
	h := &refHierarchy{cfg: cfg, cores: cores, l3: newRefCache(cfg.L3),
		owners: map[uint64]uint32{}, footprint: map[uint64]struct{}{}}
	for i := 0; i < cores; i++ {
		h.l1i = append(h.l1i, newRefCache(cfg.L1I))
		h.l1d = append(h.l1d, newRefCache(cfg.L1D))
		h.l2 = append(h.l2, newRefCache(cfg.L2))
	}
	return h
}

func (h *refHierarchy) accessData(core int, addr uint64, write bool) int {
	h.footprint[addr>>6] = struct{}{}
	ln := addr >> 6
	if write {
		if mask := h.owners[ln]; mask != 0 {
			for c := 0; c < h.cores; c++ {
				if c != core && mask&(1<<uint(c)) != 0 {
					h.l1d[c].invalidate(addr)
					h.l2[c].invalidate(addr)
					h.invalidations++
				}
			}
		}
		h.owners[ln] = 1 << uint(core)
	} else {
		h.owners[ln] |= 1 << uint(core)
	}
	if h.l1d[core].access(addr) {
		return h.cfg.L1D.LatCycles
	}
	if h.l2[core].access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.cfg.Prefetch {
		h.l2[core].access(addr + LineBytes)
		h.l3.access(addr + LineBytes)
	}
	if h.l3.access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}

func (h *refHierarchy) accessCode(core int, addr uint64) int {
	if h.l1i[core].access(addr) {
		return h.cfg.L1I.LatCycles
	}
	if h.l2[core].access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.l3.access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}

// lruAddr draws an address from a small pool of hot lines, a larger pool
// of warm ones, or anywhere in a 16 MiB window, so sequences mix MRU hits,
// deeper hits, conflict misses and capacity misses.
func lruAddr(rng *rand.Rand) uint64 {
	switch r := rng.Intn(10); {
	case r < 5:
		return uint64(rng.Intn(16))*64 + uint64(rng.Intn(64))
	case r < 8:
		return uint64(rng.Intn(4096)) * 64
	default:
		return uint64(rng.Int63n(16 << 20))
	}
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	geoms := []CacheCfg{
		{Name: "direct", SizeBytes: 4 << 10, Ways: 1},
		{Name: "4way", SizeBytes: 8 << 10, Ways: 4},
		{Name: "8way-32B", SizeBytes: 16 << 10, Ways: 8, LineBytes: 32},
		{Name: "16way", SizeBytes: 64 << 10, Ways: 16},
		{Name: "3sets", SizeBytes: 3 * 4 * 64, Ways: 4},
		{Name: "6144sets", SizeBytes: 6 << 20, Ways: 16},
		{Name: "one-set", SizeBytes: 8 * 64, Ways: 8},
	}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, ref := NewCache(cfg), newRefCache(cfg)
			line := uint64(cfg.LineBytes)
			if line == 0 {
				line = LineBytes
			}
			nsets := uint64(len(ref.sets))
			for i := 0; i < 50_000; i++ {
				addr := lruAddr(rng)
				if rng.Intn(2) == 0 {
					// Up to twice the associativity of lines in a few sets:
					// recency order decides every eviction there.
					k := uint64(rng.Intn(2 * cfg.Ways))
					addr = (uint64(rng.Intn(4))%nsets + k*nsets) * line
				}
				switch rng.Intn(20) {
				case 0:
					c.Invalidate(addr)
					ref.invalidate(addr)
				case 1:
					if got, want := c.Lookup(addr), ref.lookup(addr); got != want {
						t.Fatalf("%s seed %d op %d: Lookup(%#x) = %v, reference %v", cfg.Name, seed, i, addr, got, want)
					}
				default:
					if got, want := c.Access(addr), ref.access(addr); got != want {
						t.Fatalf("%s seed %d op %d: Access(%#x) hit = %v, reference %v", cfg.Name, seed, i, addr, got, want)
					}
				}
			}
			if c.Accesses != ref.accesses || c.Misses != ref.misses {
				t.Errorf("%s seed %d: %d/%d accesses/misses, reference %d/%d",
					cfg.Name, seed, c.Accesses, c.Misses, ref.accesses, ref.misses)
			}
		}
	}
}

func TestTLBMatchesReferenceLRU(t *testing.T) {
	for _, entries := range []int{1, 4, 49, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tlb := NewTLB(entries, 30)
			ref := &refTLB{entries: make([]uint64, entries), valid: make([]bool, entries), walk: 30}
			for i := 0; i < 50_000; i++ {
				addr := uint64(rng.Intn(3*entries)) << 12
				if rng.Intn(4) == 0 {
					addr = uint64(rng.Int63n(1 << 30))
				}
				if got, want := tlb.Access(addr), ref.access(addr); got != want {
					t.Fatalf("%d entries seed %d op %d: Access(%#x) = %d, reference %d", entries, seed, i, addr, got, want)
				}
			}
			if tlb.Accesses != ref.accesses || tlb.Misses != ref.misses {
				t.Errorf("%d entries seed %d: %d/%d accesses/misses, reference %d/%d",
					entries, seed, tlb.Accesses, tlb.Misses, ref.accesses, ref.misses)
			}
		}
	}
}

// TestHierarchyMatchesReference drives multi-core traces with shared and
// private lines through both hierarchies: every latency, the invalidation
// count and the footprint must agree, with and without the prefetcher.
func TestHierarchyMatchesReference(t *testing.T) {
	small := HierarchyCfg{
		L1I:        CacheCfg{SizeBytes: 1 << 10, Ways: 2, LatCycles: 1},
		L1D:        CacheCfg{SizeBytes: 2 << 10, Ways: 4, LatCycles: 4},
		L2:         CacheCfg{SizeBytes: 8 << 10, Ways: 8, LatCycles: 12},
		L3:         CacheCfg{SizeBytes: 3 * 16 << 10, Ways: 16, LatCycles: 35},
		MemLatency: 200,
	}
	cfgs := []struct {
		name  string
		cfg   HierarchyCfg
		cores int
	}{
		{"desktop-1", DesktopHierarchy(1), 1},
		{"desktop-3", DesktopHierarchy(3), 3},
		{"small-8", SmallHierarchy(8), 8},
		{"tiny-4", small, 4},
		{"tiny-32", small, 32},
	}
	for _, tc := range cfgs {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h, ref := NewHierarchy(tc.cfg, tc.cores), newRefHierarchy(tc.cfg, tc.cores)
			for i := 0; i < 40_000; i++ {
				core := rng.Intn(tc.cores)
				addr := lruAddr(rng)
				if rng.Intn(3) > 0 {
					// Private data: per-core region.
					addr += uint64(core) << 24
				}
				var got, want int
				switch rng.Intn(6) {
				case 0:
					got, want = h.AccessCode(core, addr), ref.accessCode(core, addr)
				case 1, 2:
					got, want = h.AccessData(core, addr, true), ref.accessData(core, addr, true)
				default:
					got, want = h.AccessData(core, addr, false), ref.accessData(core, addr, false)
				}
				if got != want {
					t.Fatalf("%s seed %d op %d: latency %d, reference %d", tc.name, seed, i, got, want)
				}
			}
			if h.Invalidations != ref.invalidations {
				t.Errorf("%s seed %d: %d invalidations, reference %d", tc.name, seed, h.Invalidations, ref.invalidations)
			}
			if h.FootprintLines() != len(ref.footprint) {
				t.Errorf("%s seed %d: footprint %d lines, reference %d", tc.name, seed, h.FootprintLines(), len(ref.footprint))
			}
			if h.FootprintBytes() != uint64(len(ref.footprint))*LineBytes {
				t.Errorf("%s seed %d: footprint %d bytes", tc.name, seed, h.FootprintBytes())
			}
		}
	}
}

// TestCacheUsesEverySet: a cache whose set count is not a power of two —
// DesktopHierarchy(3)'s 6 MiB, 16-way L3 has 6144 sets — must reach every
// set. Masking the line number with nsets-1 reached only 4096 of them, so
// a working set of exactly the cache's capacity kept missing.
func TestCacheUsesEverySet(t *testing.T) {
	cfg := DesktopHierarchy(3).L3
	c := NewCache(cfg)
	lines := uint64(cfg.SizeBytes / LineBytes)
	if nsets := lines / uint64(cfg.Ways); nsets != 6144 {
		t.Fatalf("L3 has %d sets, want 6144", nsets)
	}
	for ln := uint64(0); ln < lines; ln++ {
		c.Access(ln * LineBytes)
	}
	for ln := uint64(0); ln < lines; ln++ {
		if !c.Access(ln * LineBytes) {
			t.Fatalf("line %d missed: a capacity-sized working set must fit", ln)
		}
	}
}

func TestHierarchyCoreLimit(t *testing.T) {
	NewHierarchy(SmallHierarchy(MaxCores), MaxCores)
	defer func() {
		if recover() == nil {
			t.Error("NewHierarchy accepted more cores than the coherence directory holds")
		}
	}()
	NewHierarchy(SmallHierarchy(MaxCores+1), MaxCores+1)
}
