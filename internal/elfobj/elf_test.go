package elfobj

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleExec() *File {
	f := NewExec(0x401000)
	f.AddSection(&Section{
		Name: ".text", Type: SHTProgbits, Flags: SHFAlloc | SHFExecinstr,
		Addr: 0x401000, Addralign: 16, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	})
	f.AddSection(&Section{
		Name: ".data", Type: SHTProgbits, Flags: SHFAlloc | SHFWrite,
		Addr: 0x601000, Addralign: 8, Data: []byte("hello world\x00"),
	})
	f.AddSection(&Section{
		Name: ".bss", Type: SHTNobits, Flags: SHFAlloc | SHFWrite,
		Addr: 0x602000, Size: 4096,
	})
	f.AddSection(&Section{
		Name: ".stack.p0", Type: SHTProgbits, Flags: 0, // non-alloc: not loaded
		Addr: 0x7ffff0000000, Data: bytes.Repeat([]byte{0xaa}, 64),
	})
	f.Symbols = append(f.Symbols,
		Symbol{Name: "_start", Value: 0x401000, Binding: STBGlobal, Type: STTFunc, Section: ".text"},
		Symbol{Name: ".t0.rax", Value: 0x601000, Binding: STBLocal, Type: STTObject, Section: ".data"},
		Symbol{Name: "absolute", Value: 0x1234, Binding: STBGlobal, Section: "*ABS*"},
	)
	return f
}

func TestWriteReadExec(t *testing.T) {
	f := sampleExec()
	buf, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != ETExec || g.Machine != EMPVM || g.Entry != 0x401000 {
		t.Errorf("header mismatch: %+v", g)
	}
	for _, name := range []string{".text", ".data", ".bss", ".stack.p0"} {
		ws, rs := f.Section(name), g.Section(name)
		if rs == nil {
			t.Fatalf("section %s lost", name)
		}
		if rs.Addr != ws.Addr || rs.Flags != ws.Flags || rs.Type != ws.Type {
			t.Errorf("section %s header mismatch: %+v vs %+v", name, rs, ws)
		}
		if !bytes.Equal(rs.Data, ws.Data) {
			t.Errorf("section %s data mismatch", name)
		}
		if rs.DataSize() != ws.DataSize() {
			t.Errorf("section %s size %d != %d", name, rs.DataSize(), ws.DataSize())
		}
	}
	if len(g.Symbols) != 3 {
		t.Fatalf("got %d symbols: %+v", len(g.Symbols), g.Symbols)
	}
	st, ok := g.Symbol("_start")
	if !ok || st.Value != 0x401000 || st.Section != ".text" || st.Type != STTFunc {
		t.Errorf("_start: %+v ok=%v", st, ok)
	}
	ab, ok := g.Symbol("absolute")
	if !ok || ab.Section != "*ABS*" || ab.Value != 0x1234 {
		t.Errorf("absolute: %+v ok=%v", ab, ok)
	}
}

func TestSegmentsDerived(t *testing.T) {
	f := sampleExec()
	buf, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	// .text, .data, .bss are loadable; .stack.p0 is not.
	if len(g.Segments) != 3 {
		t.Fatalf("got %d segments: %+v", len(g.Segments), g.Segments)
	}
	txt := g.Segments[0]
	if txt.Vaddr != 0x401000 || txt.Flags != PFR|PFX || !bytes.Equal(txt.Data, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("text segment: %+v", txt)
	}
	bss := g.Segments[2]
	if bss.Vaddr != 0x602000 || bss.Filesz != 0 || bss.Memsz != 4096 || bss.Flags != PFR|PFW {
		t.Errorf("bss segment: %+v", bss)
	}
	for _, seg := range g.Segments {
		if seg.Vaddr == 0x7ffff0000000 {
			t.Error("non-alloc stack section leaked into a segment")
		}
	}
}

// TestWriteLeavesFileUnchanged: serializing a File must not modify it, so
// a File loads the same whether or not it was ever written, and a Write
// beside a load of the same File reads only.
func TestWriteLeavesFileUnchanged(t *testing.T) {
	f, want := sampleExec(), sampleExec()
	first, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("Write modified the File:\n got  %+v\n want %+v", f, want)
	}
	if !bytes.Equal(first, second) {
		t.Error("two Writes of one File differ")
	}
}

func TestObjectRelocations(t *testing.T) {
	f := NewObject()
	f.AddSection(&Section{Name: ".text", Type: SHTProgbits,
		Flags: SHFAlloc | SHFExecinstr, Data: make([]byte, 32)})
	f.AddSection(&Section{Name: ".data", Type: SHTProgbits,
		Flags: SHFAlloc | SHFWrite, Data: make([]byte, 16)})
	f.Symbols = append(f.Symbols,
		Symbol{Name: "foo", Value: 8, Binding: STBGlobal, Type: STTFunc, Section: ".text"})
	f.Relocs[".text"] = []Reloc{
		{Offset: 0, Type: RPVMLimm64, Symbol: "bar", Addend: 4},
		{Offset: 16, Type: RPVMPC32, Symbol: "foo", Addend: 0},
	}
	f.Relocs[".data"] = []Reloc{{Offset: 0, Type: RPVM64, Symbol: "foo"}}

	buf, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != ETRel {
		t.Errorf("type = %d", g.Type)
	}
	rt := g.Relocs[".text"]
	if len(rt) != 2 || rt[0].Symbol != "bar" || rt[0].Type != RPVMLimm64 || rt[0].Addend != 4 {
		t.Errorf("text relocs: %+v", rt)
	}
	if rt[1].Symbol != "foo" || rt[1].Type != RPVMPC32 || rt[1].Offset != 16 {
		t.Errorf("text reloc 1: %+v", rt[1])
	}
	rd := g.Relocs[".data"]
	if len(rd) != 1 || rd[0].Type != RPVM64 || rd[0].Symbol != "foo" {
		t.Errorf("data relocs: %+v", rd)
	}
	// "bar" was auto-added as an undefined symbol.
	bar, ok := g.Symbol("bar")
	if !ok || bar.Section != "" {
		t.Errorf("bar: %+v ok=%v", bar, ok)
	}
}

func TestWriteErrors(t *testing.T) {
	f := NewObject()
	f.Relocs[".nosuch"] = []Reloc{{Symbol: "x"}}
	if _, err := f.Write(); err == nil {
		t.Error("relocations against missing section accepted")
	}

	f2 := NewObject()
	f2.AddSection(&Section{Name: ".text", Type: SHTProgbits})
	f2.Symbols = []Symbol{{Name: "a", Section: ".gone", Binding: STBGlobal}}
	if _, err := f2.Write(); err == nil {
		t.Error("symbol in missing section accepted")
	}

	f3 := NewObject()
	f3.Symbols = []Symbol{
		{Name: "dup", Binding: STBGlobal},
		{Name: "dup", Binding: STBGlobal},
	}
	if _, err := f3.Write(); err == nil {
		t.Error("duplicate symbol accepted")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(nil); err == nil {
		t.Error("Read(nil) succeeded")
	}
	if _, err := Read(make([]byte, 100)); err == nil {
		t.Error("Read(zeros) succeeded")
	}
	f := sampleExec()
	buf, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 1 // ELFCLASS32
	if _, err := Read(bad); err == nil {
		t.Error("32-bit class accepted")
	}
	trunc := buf[:EhdrSize+8]
	if _, err := Read(trunc); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestLocalsBeforeGlobals(t *testing.T) {
	f := NewObject()
	f.AddSection(&Section{Name: ".text", Type: SHTProgbits, Data: make([]byte, 8)})
	f.Symbols = []Symbol{
		{Name: "g1", Binding: STBGlobal, Section: ".text"},
		{Name: "l1", Binding: STBLocal, Section: ".text"},
		{Name: "g2", Binding: STBGlobal, Section: ".text"},
		{Name: "l2", Binding: STBLocal, Section: ".text"},
	}
	buf, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	sawGlobal := false
	for _, s := range g.Symbols {
		if s.Binding == STBGlobal {
			sawGlobal = true
		} else if sawGlobal {
			t.Fatalf("local %q after a global: %+v", s.Name, g.Symbols)
		}
	}
}

// Property: writing then reading random section contents round-trips.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewExec(0x400000)
		n := 1 + rng.Intn(6)
		addr := uint64(0x400000)
		for i := 0; i < n; i++ {
			data := make([]byte, 1+rng.Intn(512))
			rng.Read(data)
			f.AddSection(&Section{
				Name: ".s" + string(rune('a'+i)), Type: SHTProgbits,
				Flags: SHFAlloc, Addr: addr, Addralign: 1, Data: data,
			})
			addr += uint64(len(data)) + uint64(rng.Intn(8192))&^0xfff + 0x1000
		}
		buf, err := f.Write()
		if err != nil {
			return false
		}
		g, err := Read(buf)
		if err != nil {
			return false
		}
		if len(g.Sections) != n {
			return false
		}
		for i, ws := range f.Sections {
			if !bytes.Equal(g.Sections[i].Data, ws.Data) || g.Sections[i].Addr != ws.Addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
