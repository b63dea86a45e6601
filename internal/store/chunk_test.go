package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// page builds one deterministic 4 KiB page seeded by n.
func page(n int) []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = byte(n*31 + i*7)
	}
	return p
}

// image concatenates pages by seed — a stand-in for a checkpoint memory
// image where each differing seed is a dirty page.
func image(seeds ...int) []byte {
	var buf bytes.Buffer
	for _, s := range seeds {
		buf.Write(page(s))
	}
	return buf.Bytes()
}

// countObjects walks objects/ and returns the number of object directories.
func countObjects(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	prefixes, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		objs, err := os.ReadDir(filepath.Join(s.root, "objects", p.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += len(objs)
	}
	return n
}

func TestPutChunkedRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files := FileSet{
		"ck.text":   image(1, 2, 3, 4, 5, 6, 7, 8),
		"meta.json": []byte("not a real pinball, small stays inline"),
	}
	e, err := s.PutChunked("ckpt/1", "checkpoint", files, 4096)
	if err != nil {
		t.Fatal(err)
	}

	// The top object holds the manifest, not the image.
	top, err := s.ReadObject(e.Object)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := top[chunkManifestName]; !ok {
		t.Fatal("top object has no chunk manifest")
	}
	if _, ok := top["ck.text"]; ok {
		t.Fatal("large member stored inline despite chunking")
	}

	// Get reassembles transparently.
	got, _, ok, err := s.Get("ckpt/1")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got["ck.text"], files["ck.text"]) {
		t.Error("reassembled member differs")
	}
	if !bytes.Equal(got["meta.json"], files["meta.json"]) {
		t.Error("inline member differs")
	}
	if _, ok := got[chunkManifestName]; ok {
		t.Error("chunk manifest leaked into the resolved file set")
	}

	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Chunked != 1 {
		t.Errorf("verify: ok=%v chunked=%d problems=%v", rep.OK(), rep.Chunked, rep.Problems)
	}

	// Damage one chunk on disk; Get must report corruption.
	refs := s.chunkRefs(e.Object)
	if len(refs) != 8 {
		t.Fatalf("chunk refs = %d, want 8", len(refs))
	}
	path := filepath.Join(s.objectDir(refs[3]), "chunk")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Get("ckpt/1"); err == nil {
		t.Error("damaged chunk not detected on Get")
	}
}

// TestChunkedDeduplication is the checkpoint-series economics: a second
// checkpoint differing in one dirty page costs one new chunk object plus a
// new top object, not a second copy of the image.
func TestChunkedDeduplication(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	seedsA := make([]int, pages)
	seedsB := make([]int, pages)
	for i := range seedsA {
		seedsA[i], seedsB[i] = i, i
	}
	seedsB[11] = 999 // the one dirty page

	if _, err := s.PutChunked("ckpt/1", "checkpoint", FileSet{"img": image(seedsA...)}, 4096); err != nil {
		t.Fatal(err)
	}
	after1 := countObjects(t, s)
	if after1 != pages+1 { // 16 chunks + 1 top
		t.Fatalf("objects after first checkpoint = %d, want %d", after1, pages+1)
	}
	if _, err := s.PutChunked("ckpt/2", "checkpoint", FileSet{"img": image(seedsB...)}, 4096); err != nil {
		t.Fatal(err)
	}
	after2 := countObjects(t, s)
	if want := after1 + 2; after2 != want { // +1 dirty chunk, +1 top
		t.Fatalf("objects after second checkpoint = %d, want %d (delta should be dirty pages only)",
			after2, want)
	}

	// GC with both checkpoints live removes nothing.
	rep, err := s.GC(GCOptions{TmpGrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanObjects != 0 {
		t.Fatalf("gc removed %d objects from a fully live store", rep.OrphanObjects)
	}

	// Dropping the second checkpoint reclaims exactly its top + dirty chunk.
	if err := s.Delete("ckpt/2"); err != nil {
		t.Fatal(err)
	}
	rep, err = s.GC(GCOptions{TmpGrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanObjects != 2 {
		t.Fatalf("gc after delete removed %d objects, want 2", rep.OrphanObjects)
	}
	got, _, ok, err := s.Get("ckpt/1")
	if err != nil || !ok {
		t.Fatalf("surviving checkpoint: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got["img"], image(seedsA...)) {
		t.Error("surviving checkpoint content damaged by GC")
	}
}

func TestGCSkipsFreshTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, "tmp", "put-otherproc")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	// Default grace: a fresh staging dir (another process mid-Put) survives.
	rep, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TmpDebris != 0 {
		t.Fatalf("fresh staging dir swept: %+v", rep)
	}
	// Backdated past the grace window it is debris.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stage, old, old); err != nil {
		t.Fatal(err)
	}
	rep, err = s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TmpDebris != 1 {
		t.Fatalf("stale staging dir not swept: %+v", rep)
	}
}

// TestConcurrentPutGC races writers against an aggressive GC loop (zero
// grace), the farm's steady state: workers storing checkpoints while a
// housekeeping GC runs. The staging registry must keep GC from sweeping an
// in-flight write; every Put must land intact.
func TestConcurrentPutGC(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, puts = 8, 20

	stop := make(chan struct{})
	var gcErr error
	var gcWg sync.WaitGroup
	gcWg.Add(1)
	go func() {
		defer gcWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(GCOptions{TmpGrace: -1}); err != nil {
				gcErr = err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("job/%d/%d", w, i)
				files := FileSet{
					"img":  image(w*1000+i, w*1000+i+1, 7), // shares page(7) across writers
					"meta": []byte(key),
				}
				if _, err := s.PutChunked(key, "checkpoint", files, 4096); err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	gcWg.Wait()
	if gcErr != nil {
		t.Fatalf("gc loop: %v", gcErr)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every put must be readable and intact after the dust settles.
	for w := 0; w < writers; w++ {
		for i := 0; i < puts; i++ {
			key := fmt.Sprintf("job/%d/%d", w, i)
			got, _, ok, err := s.Get(key)
			if err != nil || !ok {
				t.Fatalf("%s: ok=%v err=%v", key, ok, err)
			}
			if !bytes.Equal(got["img"], image(w*1000+i, w*1000+i+1, 7)) {
				t.Fatalf("%s: content damaged", key)
			}
		}
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("post-race verify: %v", rep.Problems)
	}
}
