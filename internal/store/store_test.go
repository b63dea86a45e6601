package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"elfie/internal/isa"
	"elfie/internal/pinball"
)

func testFiles(tag string) FileSet {
	return FileSet{
		"a.bin":  []byte("alpha-" + tag),
		"b.json": []byte(`{"tag":"` + tag + `"}`),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testFiles("one")
	e, err := s.Put("key1", "test", want)
	if err != nil {
		t.Fatal(err)
	}
	if e.Object == "" || e.Files != 2 {
		t.Fatalf("entry: %+v", e)
	}
	got, ge, ok, err := s.Get("key1")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if ge.Object != e.Object {
		t.Errorf("object mismatch: %s vs %s", ge.Object, e.Object)
	}
	if len(got) != len(want) || string(got["a.bin"]) != "alpha-one" {
		t.Errorf("content mismatch: %v", got)
	}
	if _, _, ok, err := s.Get("missing"); ok || err != nil {
		t.Errorf("miss: ok=%v err=%v", ok, err)
	}
}

func TestObjectIDCanonical(t *testing.T) {
	a := FileSet{"x": []byte("12"), "y": []byte("3")}
	b := FileSet{"y": []byte("3"), "x": []byte("12")}
	if ObjectID(a) != ObjectID(b) {
		t.Error("insertion order changed the content address")
	}
	// Name/content framing: moving a byte between name boundary and data
	// must change the address.
	c := FileSet{"x1": []byte("2"), "y": []byte("3")}
	if ObjectID(a) == ObjectID(c) {
		t.Error("frame ambiguity: x/12 collides with x1/2")
	}
}

func TestDeduplication(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Put("key1", "test", testFiles("same"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Put("key2", "test", testFiles("same"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Object != e2.Object {
		t.Fatalf("identical content, different objects: %s vs %s", e1.Object, e2.Object)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Objects != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.DedupSaved != st.Bytes {
		t.Errorf("dedup accounting: saved %d, bytes %d", st.DedupSaved, st.Bytes)
	}
}

func TestIndexPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("key1", "test", testFiles("persist")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := s2.Get("key1")
	if err != nil || !ok {
		t.Fatalf("reopened store missed: ok=%v err=%v", ok, err)
	}
	if string(got["a.bin"]) != "alpha-persist" {
		t.Errorf("content: %q", got["a.bin"])
	}
}

func TestGetDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Put("key1", "test", testFiles("tamper"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the object directory.
	victim := filepath.Join(dir, "objects", e.Object[:2], e.Object, "a.bin")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Get("key1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered get: %v", err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Problems) != 1 {
		t.Errorf("verify report: %+v", rep)
	}
}

func TestVerifyChecksPinballManifest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pb := &pinball.Pinball{
		Name: "demo",
		Meta: pinball.Meta{
			ProgramName: "demo", NumThreads: 1,
			RegionLength: []uint64{100}, TotalInstructions: 100,
		},
		Pages: []pinball.Page{{Addr: 0x1000, Prot: 7, Data: make([]byte, 64)}},
		Regs:  []isa.RegFile{{PC: 0x1000}},
	}
	files, err := pb.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("pb", "region", FileSet(files)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Pinballs != 1 || rep.Unverified != 0 {
		t.Errorf("verify: %+v", rep)
	}

	// Break the CRC without breaking the object hash: store a file set
	// whose .text disagrees with the embedded manifest. The object hash
	// matches what was put (the store layer is happy), but the pinball
	// manifest must flag it.
	files2, err := pb.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	files2["demo.text"] = append([]byte(nil), files2["demo.text"]...)
	files2["demo.text"][0] ^= 1
	if _, err := s.Put("pb-bad", "region", FileSet(files2)); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, p := range rep.Problems {
		if p.Key == "pb-bad" && errors.Is(p.Err, pinball.ErrCorrupt) {
			bad++
		}
	}
	if bad != 1 {
		t.Errorf("pinball CRC problem not surfaced: %+v", rep.Problems)
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := s.Put("keep", "test", testFiles("keep"))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := s.Put("dead", "test", testFiles("dead"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("dead"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer.
	if err := os.MkdirAll(filepath.Join(dir, "tmp", "put-crashed"), 0o755); err != nil {
		t.Fatal(err)
	}

	rep, err := s.GC(GCOptions{DryRun: true, TmpGrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanObjects != 1 || rep.TmpDebris != 1 {
		t.Fatalf("dry-run report: %+v", rep)
	}
	if _, err := os.Stat(s.objectDir(dead.Object)); err != nil {
		t.Fatal("dry run removed the orphan")
	}

	rep, err = s.GC(GCOptions{TmpGrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanObjects != 1 || rep.TmpDebris != 1 || rep.BytesReclaimed == 0 {
		t.Fatalf("gc report: %+v", rep)
	}
	if _, err := os.Stat(s.objectDir(dead.Object)); !os.IsNotExist(err) {
		t.Error("orphan object survived GC")
	}
	if _, _, ok, err := s.Get("keep"); !ok || err != nil {
		t.Errorf("live entry damaged by GC: ok=%v err=%v", ok, err)
	}
	_ = keep
}

func TestGCMaxAge(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("old", "test", testFiles("old")); err != nil {
		t.Fatal(err)
	}
	// Age the entry below the cutoff.
	s.mu.Lock()
	s.idx["old"].LastUsed = time.Now().UTC().Add(-48 * time.Hour)
	s.mu.Unlock()
	if _, err := s.Put("new", "test", testFiles("new")); err != nil {
		t.Fatal(err)
	}

	// TmpGrace: -1 because the expired entry's object was written seconds
	// ago — a production sweep would shield it until it outlives the grace.
	rep, err := s.GC(GCOptions{MaxAge: 24 * time.Hour, TmpGrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExpiredEntries != 1 || rep.OrphanObjects != 1 {
		t.Fatalf("gc: %+v", rep)
	}
	if _, _, ok, _ := s.Get("old"); ok {
		t.Error("expired entry still present")
	}
	if _, _, ok, err := s.Get("new"); !ok || err != nil {
		t.Errorf("fresh entry lost: ok=%v err=%v", ok, err)
	}
}

func TestKeyDeterministic(t *testing.T) {
	type material struct {
		Name  string
		Slice int
	}
	k1, err := Key(material{"gcc", 3})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(material{"gcc", 3})
	if err != nil {
		t.Fatal(err)
	}
	k3, err := Key(material{"gcc", 4})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same material, different keys")
	}
	if k1 == k3 {
		t.Error("different material, same key")
	}
	if len(k1) != 64 {
		t.Errorf("key length %d", len(k1))
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := s.Put("shared", "test", testFiles("race"))
			done <- err
		}()
		go func() {
			_, _, _, err := s.Get("shared")
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentGetEntryIsACopy: the entry Get returns is the caller's own
// copy, so reading it races with no later Get of the same key (each Get
// rewrites the index entry's LastUsed under the store lock).
func TestConcurrentGetEntryIsACopy(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("shared", "test", testFiles("copy")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, e, ok, err := s.Get("shared")
			if err != nil || !ok {
				t.Errorf("get: ok=%v err=%v", ok, err)
				return
			}
			if e.LastUsed.IsZero() {
				t.Error("hit did not refresh LastUsed")
			}
		}()
	}
	wg.Wait()
}
