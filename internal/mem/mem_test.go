package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x2000, ProtRW)
	msg := []byte("hello, pages")
	if err := as.Write(0x1ffc, msg); err != nil { // crosses a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(0x1ffc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

func TestFaults(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRead)

	var buf [8]byte
	err := as.Read(0x5000, buf[:])
	var f *Fault
	if !errors.As(err, &f) || !f.Missing || f.Access != AccessRead || f.Addr != 0x5000 {
		t.Errorf("missing read: %v", err)
	}
	err = as.Write(0x1000, buf[:])
	if !errors.As(err, &f) || f.Missing || f.Access != AccessWrite {
		t.Errorf("write to ro: %v", err)
	}
	err = as.Fetch(0x1000, buf[:])
	if !errors.As(err, &f) || f.Access != AccessExec {
		t.Errorf("fetch from non-exec: %v", err)
	}
	as.Map(0x1000, 0x1000, ProtRX)
	if err := as.Fetch(0x1000, buf[:]); err != nil {
		t.Errorf("fetch from rx: %v", err)
	}
	// Fault in the middle of a multi-page access reports the right address.
	as2 := NewAddrSpace()
	as2.Map(0x1000, 0x1000, ProtRW)
	big := make([]byte, 0x1800)
	err = as2.Read(0x1800, big)
	if !errors.As(err, &f) || f.Addr != 0x2000 {
		t.Errorf("mid-access fault: %v", err)
	}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x3000, ProtRW)
	as.Unmap(0x2000, 0x1000)
	if as.Mapped(0x2000) {
		t.Error("page still mapped")
	}
	if !as.Mapped(0x1000) || !as.Mapped(0x3000) {
		t.Error("neighbours unmapped")
	}
}

func TestU64(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0, 0x1000, ProtRW)
	if err := as.WriteU64(8, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(8)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Errorf("v=%#x err=%v", v, err)
	}
	if _, err := as.ReadU64(0x5000); err == nil {
		t.Error("unmapped ReadU64 succeeded")
	}
}

func TestNoFault(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRead) // read-only
	as.WriteNoFault(0x1000, []byte{1, 2, 3})
	got := make([]byte, 3)
	if n := as.ReadNoFault(0x1000, got); n != 3 || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("n=%d got=%v", n, got)
	}
	// WriteNoFault maps missing pages.
	as.WriteNoFault(0x9000, []byte{9})
	if !as.Mapped(0x9000) {
		t.Error("page not auto-mapped")
	}
	// ReadNoFault stops at unmapped pages.
	buf := make([]byte, 0x2000)
	if n := as.ReadNoFault(0x1000, buf); n != 0x1000 {
		t.Errorf("partial read n=%#x", n)
	}
	if n := as.ReadNoFault(0x500000, buf); n != 0 {
		t.Errorf("read from nowhere n=%d", n)
	}
}

func TestRegions(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x2000, ProtRX)
	as.Map(0x3000, 0x1000, ProtRW)
	as.Map(0x10000, 0x1000, ProtRW)
	rs := as.Regions()
	want := []Region{
		{0x1000, 0x2000, ProtRX},
		{0x3000, 0x1000, ProtRW},
		{0x10000, 0x1000, ProtRW},
	}
	if len(rs) != len(want) {
		t.Fatalf("regions: %+v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("region %d: %+v want %+v", i, rs[i], want[i])
		}
	}
}

func TestClone(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRW)
	as.Write(0x1000, []byte("original"))
	c := as.Clone()
	c.Write(0x1000, []byte("modified"))
	var buf [8]byte
	as.Read(0x1000, buf[:])
	if string(buf[:]) != "original" {
		t.Errorf("clone aliased parent: %q", buf)
	}
	if c.NumPages() != as.NumPages() {
		t.Errorf("page counts differ")
	}
}

func TestPageData(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x2000, 0x1000, ProtRW)
	as.Write(0x2100, []byte{0xab})
	pd := as.PageData(0x2abc)
	if pd == nil || pd[0x100] != 0xab {
		t.Errorf("PageData: %v", pd != nil)
	}
	if as.PageData(0x99000) != nil {
		t.Error("PageData for unmapped page")
	}
}

// Property: any write followed by a read of the same range returns the same
// bytes, regardless of page-crossing.
func TestReadWriteProperty(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x10000, 0x10000, ProtRW)
	prop := func(off uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9000)
		data := make([]byte, n)
		rng.Read(data)
		addr := 0x10000 + uint64(off)%0x6000
		if err := as.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, n)
		if err := as.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPageHelpers(t *testing.T) {
	if PageNum(0x1fff) != 1 || PageBase(0x1fff) != 0x1000 {
		t.Error("page math wrong")
	}
	as := NewAddrSpace()
	as.Map(0x1000, 0, ProtRW) // zero size is a no-op
	if as.NumPages() != 0 {
		t.Error("zero-size map created pages")
	}
	as.Unmap(0, 0)
	if as.Prot(0x1000) != 0 {
		t.Error("Prot of unmapped page")
	}
}

// Regression: a multi-page write that faults on a later page must have no
// effect at all. Before pre-validation, the bytes on the first (writable)
// page were already mutated when the fault on the second page surfaced.
func TestTornWrite(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRW) // second page (0x2000) unmapped
	orig := []byte("untouched")
	if err := as.Write(0x2000-uint64(len(orig)), orig); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 0x100)
	for i := range big {
		big[i] = 0xee
	}
	err := as.Write(0x2000-0x80, big) // 0x80 bytes on page 1, rest on unmapped page 2
	var f *Fault
	if !errors.As(err, &f) || f.Addr != 0x2000 || !f.Missing {
		t.Fatalf("expected fault at 0x2000, got %v", err)
	}
	got := make([]byte, len(orig))
	if err := as.Read(0x2000-uint64(len(orig)), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Errorf("torn write: first page mutated before fault: %q", got)
	}
	// Same for a write whose *first* page is the bad one: fault address is
	// the original address, not the page base.
	err = as.Write(0x0800, big)
	if !errors.As(err, &f) || f.Addr != 0x0800 {
		t.Errorf("first-page fault addr = %v", err)
	}
}

// Generations: Map over existing pages, Unmap, and writes to executable
// pages must all advance the page generation / address-space clock, so the
// VM's decoded-block cache can never run stale code.
func TestGenerations(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRX)
	g0, ok := as.ExecGen(0x1000)
	if !ok {
		t.Fatal("exec page has no generation")
	}
	// Remap in place (protection change): new generation.
	as.Map(0x1000, 0x1000, ProtRWX)
	g1, ok := as.ExecGen(0x1000)
	if !ok || g1 == g0 {
		t.Errorf("remap did not refresh generation: %d -> %d", g0, g1)
	}
	// Write to an executable page: new generation (self-modifying code).
	if err := as.Write(0x1004, []byte{1}); err != nil {
		t.Fatal(err)
	}
	g2, _ := as.ExecGen(0x1000)
	if g2 == g1 {
		t.Error("write to exec page did not refresh generation")
	}
	// StoreFast to an executable page: same contract.
	if !as.StoreFast(0x1008, 0xff, 8) {
		t.Fatal("StoreFast failed")
	}
	g3, _ := as.ExecGen(0x1000)
	if g3 == g2 {
		t.Error("StoreFast to exec page did not refresh generation")
	}
	// WriteNoFault (checkpoint restore) to an executable page: same contract.
	as.WriteNoFault(0x1010, []byte{7})
	g4, _ := as.ExecGen(0x1000)
	if g4 == g3 {
		t.Error("WriteNoFault to exec page did not refresh generation")
	}
	// Writes to non-exec pages advance nothing.
	as.Map(0x5000, 0x1000, ProtRW)
	c := as.Clock()
	if err := as.Write(0x5000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if as.Clock() != c {
		t.Error("write to non-exec page advanced the clock")
	}
	// Unmap advances the clock; a fresh Map at the same address yields a
	// generation unequal to any previous one.
	as.Unmap(0x1000, 0x1000)
	as.Map(0x1000, 0x1000, ProtRX)
	g5, ok := as.ExecGen(0x1000)
	if !ok || g5 == g0 || g5 == g1 || g5 == g2 || g5 == g3 || g5 == g4 {
		t.Errorf("unmap+map reused a stale generation: %d", g5)
	}
}

// The TLB must never satisfy a translation for an unmapped or
// reprotected page.
func TestTLBInvalidation(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRW)
	if _, ok := as.LoadFast(0x1000, 8); !ok {
		t.Fatal("warm-up load failed")
	}
	as.Unmap(0x1000, 0x1000)
	if _, ok := as.LoadFast(0x1000, 8); ok {
		t.Error("TLB served an unmapped page")
	}
	as.Map(0x1000, 0x1000, ProtRead)
	if as.StoreFast(0x1000, 1, 8) {
		t.Error("TLB allowed a store to a read-only page")
	}
	// Aliasing: pages 64 sets apart share a TLB slot; both must work.
	const stride = uint64(tlbSize * PageSize)
	as.Map(0x10000, 0x1000, ProtRW)
	as.Map(0x10000+stride, 0x1000, ProtRW)
	as.StoreFast(0x10000, 0x11, 8)
	as.StoreFast(0x10000+stride, 0x22, 8)
	if v, _ := as.LoadFast(0x10000, 8); v != 0x11 {
		t.Errorf("aliased slot clobbered: %#x", v)
	}
	if v, _ := as.LoadFast(0x10000+stride, 8); v != 0x22 {
		t.Errorf("aliased slot clobbered: %#x", v)
	}
}

// LoadFast/StoreFast must agree byte-for-byte with the general path,
// refuse page-crossing accesses, and leave memory untouched when refusing.
func TestFastPathEquivalence(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x2000, ProtRW)
	for _, size := range []int{1, 2, 4, 8} {
		for _, addr := range []uint64{0x1000, 0x1001, 0x17ff, 0x2000 - uint64(size), 0x1ffd} {
			v := uint64(0x1122334455667788)
			cross := addr&(PageSize-1)+uint64(size) > PageSize
			if ok := as.StoreFast(addr, v, size); ok == cross {
				t.Fatalf("StoreFast(%#x,%d) ok=%v cross=%v", addr, size, ok, cross)
			}
			if cross {
				continue
			}
			buf := make([]byte, size)
			if err := as.Read(addr, buf); err != nil {
				t.Fatal(err)
			}
			want := uint64(0)
			for i := size - 1; i >= 0; i-- {
				want = want<<8 | uint64(buf[i])
			}
			got, ok := as.LoadFast(addr, size)
			if !ok || got != want {
				t.Errorf("LoadFast(%#x,%d) = %#x,%v want %#x", addr, size, got, ok, want)
			}
		}
	}
	// ReadU64/WriteU64 still work across a page boundary via the slow path.
	if err := as.WriteU64(0x1ffc, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	if v, err := as.ReadU64(0x1ffc); err != nil || v != 0xdeadbeefcafef00d {
		t.Errorf("cross-page U64: %#x %v", v, err)
	}
}

// ExecWindow returns the in-page executable bytes and matches ExecGen.
func TestExecWindow(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRX)
	as.WriteNoFault(0x1ff0, []byte{1, 2, 3, 4})
	win, gen, err := as.ExecWindow(0x1ff0)
	if err != nil || len(win) != 16 || win[0] != 1 {
		t.Fatalf("window: len=%d err=%v", len(win), err)
	}
	if g, ok := as.ExecGen(0x1000); !ok || g != gen {
		t.Errorf("ExecGen %d != window gen %d", g, gen)
	}
	if _, _, err := as.ExecWindow(0x5000); err == nil {
		t.Error("ExecWindow of unmapped page succeeded")
	}
	as.Map(0x6000, 0x1000, ProtRW)
	if _, _, err := as.ExecWindow(0x6000); err == nil {
		t.Error("ExecWindow of non-exec page succeeded")
	}
}

// Clone preserves generations and the clock so decoded-block validity
// carries over; the clone's TLB must not alias the parent's pages.
func TestCloneGenerations(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x1000, ProtRX)
	g, _ := as.ExecGen(0x1000)
	c := as.Clone()
	cg, ok := c.ExecGen(0x1000)
	if !ok || cg != g {
		t.Errorf("clone generation %d want %d", cg, g)
	}
	if c.Clock() != as.Clock() {
		t.Error("clone clock differs")
	}
	// Writing through the clone must not be visible through the parent's
	// TLB (deep copy).
	c.Map(0x1000, 0x1000, ProtRW)
	c.StoreFast(0x1000, 0x42, 8)
	var buf [8]byte
	if err := as.Fetch(0x1000, buf[:]); err != nil || buf[0] == 0x42 {
		t.Errorf("parent sees clone write: %v %v", buf, err)
	}
}

// TestFirstTouchOncePerPageBeforeAccess: the armed callback fires once per
// page, before the first read, write or page-straddling access — seeing
// the page as it was — and also before an access that then faults. Every
// guest path (the TLB-backed fast accessors and the general copy) is
// covered, with the TLB warmed before arming; fetches and kernel accesses
// are not reported.
func TestFirstTouchOncePerPageBeforeAccess(t *testing.T) {
	as := NewAddrSpace()
	as.Map(0x1000, 0x6000, ProtRW)
	as.Map(0x8000, 0x1000, ProtRead)
	as.Map(0x9000, 0x1000, ProtRX)
	// Warm every TLB kind on every page before arming.
	for pn := uint64(1); pn < 10; pn++ {
		as.LoadFast(pn<<PageShift, 8)
		as.StoreFast(pn<<PageShift, 0, 8)
	}
	as.ExecGen(0x9000)

	var order []uint64
	seenFirst := map[uint64]uint64{} // page -> first word when reported
	as.TrackFirstTouch(func(base uint64) {
		order = append(order, base)
		var b [8]byte
		as.ReadNoFault(base, b[:])
		seenFirst[base] = leU64(b[:])
	})
	as.WriteNoFault(0x2000, []byte{7}) // instrumentation writes are silent

	if !as.StoreFast(0x2000, 0x99, 8) { // write: reported before the store
		as.WriteU64(0x2000, 0x99)
	}
	if _, ok := as.LoadFast(0x3000, 8); !ok { // read
		as.ReadU64(0x3000)
	}
	as.ReadPage(0x3000)
	as.Write(0x4ffc, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // straddles pages 4 and 5
	as.SetKernelAccess(true)
	as.Write(0x6000, []byte{1}) // kernel copy-out: silent, and no TLB fill
	buf := make([]byte, 8)
	as.Read(0x6000, buf)
	as.SetKernelAccess(false)
	as.Fetch(0x9000, buf)     // fetch: not reported
	as.Write(0x8000, buf)     // protection fault: still reported first
	as.Read(0x7000_0000, buf) // unmapped: reported, then faults
	// The fast accessors hand a first touch to the general path.
	if as.ReadPage(0x6000) != nil {
		t.Error("ReadPage handed out an unreported page")
	}
	as.Read(0x6000, buf)       // guest's first touch after the kernel's
	as.WritePage(0x2000)       // repeats stay silent
	as.Read(0x4ff8, buf)       // ...straddling ones too
	as.StoreFast(0x5000, 1, 8) // ...and through a refilled TLB
	as.flushTLB()              // evictions do not re-report
	as.LoadFast(0x2000, 8)     // (a miss while tracking falls to Read)
	as.Read(0x2000, buf)

	want := []uint64{0x2000, 0x3000, 0x4000, 0x5000, 0x8000, 0x7000_0000, 0x6000}
	if len(order) != len(want) {
		t.Fatalf("reported %#x, want %#x", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("reported %#x, want %#x", order, want)
		}
	}
	if seenFirst[0x2000] != 7 {
		t.Errorf("page 0x2000 reported with %#x, want its content before the store (7)", seenFirst[0x2000])
	}
	if v, _ := as.ReadU64(0x2000); v != 0x99 {
		t.Errorf("store lost: %#x", v)
	}

	as.TrackFirstTouch(nil)
	n := len(order)
	as.Read(0x1000, buf)
	if len(order) != n {
		t.Error("disarmed tracking still reports")
	}
}
