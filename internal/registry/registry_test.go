package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elfie/internal/store"
)

// transferLog wraps the registry handler and records every payload
// transfer, so tests can prove "zero re-sent chunks" structurally: a chunk
// PUT or GET that repeats, or an object byte range uploaded twice, is a
// protocol failure, not just waste.
type transferLog struct {
	next http.Handler

	mu           sync.Mutex
	blobPuts     map[string]int // chunk id -> times received
	objGets      map[string]int // chunk object id -> times served
	manifestGets int            // artifact manifest GETs (one object read each)
	topGets      []topGet       // top-object GETs (one object read each), in arrival order
	topPuts      []topPut       // top-object PUTs, in arrival order
	opens        int            // upload-open POSTs
	commits      int            // upload-commit POSTs
}

// topPut records one top-object PUT: its upload, the first byte of its
// Content-Range, and how many body bytes the handler consumed.
type topPut struct {
	upload string
	first  int64
	bytes  int64
}

// countingReader counts the bytes a handler reads from a request body.
type countingReader struct {
	io.ReadCloser
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n += int64(n)
	return n, err
}

// topGet records one top-object GET: the Range and If-Range headers the
// server saw ("" when none) and the payload bytes it wrote back.
type topGet struct {
	rng, ifRange string
	bytes        int64
}

// countingWriter counts the payload bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func newTransferLog(next http.Handler) *transferLog {
	return &transferLog{next: next, blobPuts: make(map[string]int), objGets: make(map[string]int)}
}

func (l *transferLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(r.URL.EscapedPath(), "/")
	last := parts[len(parts)-1]
	l.mu.Lock()
	if r.Method == http.MethodPut && len(parts) >= 2 && parts[len(parts)-2] == "blobs" {
		l.blobPuts[last]++
	}
	if r.Method == http.MethodGet && len(parts) >= 2 && parts[len(parts)-2] == "objects" {
		l.objGets[last]++
	}
	if r.Method == http.MethodGet && len(parts) >= 2 && parts[len(parts)-2] == "artifacts" {
		l.manifestGets++
	}
	if r.Method == http.MethodPost && last == "uploads" {
		l.opens++
	}
	if r.Method == http.MethodPost && last == "commit" {
		l.commits++
	}
	l.mu.Unlock()
	if r.Method == http.MethodGet && len(parts) >= 3 && parts[len(parts)-3] == "artifacts" && last == "object" {
		cw := &countingWriter{ResponseWriter: w}
		l.next.ServeHTTP(cw, r)
		l.mu.Lock()
		l.topGets = append(l.topGets, topGet{rng: r.Header.Get("Range"), ifRange: r.Header.Get("If-Range"), bytes: cw.n})
		l.mu.Unlock()
		return
	}
	if r.Method == http.MethodPut && len(parts) >= 3 && parts[len(parts)-3] == "uploads" && last == "object" {
		var first int64
		fmt.Sscanf(r.Header.Get("Content-Range"), "bytes %d-", &first)
		cr := &countingReader{ReadCloser: r.Body}
		r.Body = cr
		l.next.ServeHTTP(w, r)
		l.mu.Lock()
		l.topPuts = append(l.topPuts, topPut{upload: parts[len(parts)-2], first: first, bytes: cr.n})
		l.mu.Unlock()
		return
	}
	l.next.ServeHTTP(w, r)
}

// snapshot returns the manifest GET count and a copy of the top-object
// GETs logged so far.
func (l *transferLog) snapshot() (int, []topGet) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.manifestGets, append([]topGet(nil), l.topGets...)
}

// stripRange drops the Range header before the registry sees it, standing
// in for a server or proxy that ignores ranges and answers 200 in full.
func stripRange(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Range")
		next.ServeHTTP(w, r)
	})
}

func (l *transferLog) duplicates() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var dups []string
	for id, n := range l.blobPuts {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("chunk %s put %d times", id[:12], n))
		}
	}
	for id, n := range l.objGets {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("chunk %s fetched %d times", id[:12], n))
		}
	}
	puts := append([]topPut(nil), l.topPuts...)
	sort.Slice(puts, func(i, j int) bool {
		if puts[i].upload != puts[j].upload {
			return puts[i].upload < puts[j].upload
		}
		return puts[i].first < puts[j].first
	})
	for i := 1; i < len(puts); i++ {
		prev, p := puts[i-1], puts[i]
		if p.upload == prev.upload && p.bytes > 0 && p.first < prev.first+prev.bytes {
			dups = append(dups, fmt.Sprintf("upload %s: bytes %d-%d sent again from %d",
				p.upload, prev.first, prev.first+prev.bytes-1, p.first))
		}
	}
	return dups
}

// uploads returns the open and commit counts and a copy of the top-object
// PUTs logged so far.
func (l *transferLog) uploads() (opens, commits int, puts []topPut) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opens, l.commits, append([]topPut(nil), l.topPuts...)
}

// testRegistry spins up a registry server over a fresh store.
func testRegistry(t *testing.T, opts ServerOptions) (*store.Store, *transferLog, *httptest.Server) {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tl := newTransferLog(NewServer(s, opts).Handler())
	srv := httptest.NewServer(tl)
	t.Cleanup(srv.Close)
	return s, tl, srv
}

func testClient(srv *httptest.Server, tenant string) *Client {
	return &Client{Base: srv.URL, Tenant: tenant, WireChunk: 256, Retries: 2}
}

func localStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptObjectFile flips bytes inside one stored object's largest member
// file, simulating on-disk rot under the server.
func corruptObjectFile(t *testing.T, root, object string) {
	t.Helper()
	dir := filepath.Join(root, "objects", object[:2], object)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	var best int64 = -1
	for _, de := range ents {
		info, err := de.Info()
		if err != nil || de.IsDir() {
			continue
		}
		if info.Size() > best {
			best, victim = info.Size(), filepath.Join(dir, de.Name())
		}
	}
	if victim == "" {
		t.Fatalf("object %s has no files to corrupt", object)
	}
	if err := os.WriteFile(victim, []byte("rotten bits"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkpointLike builds a file set shaped like a mid-run checkpoint: a big
// chunkable memory image plus small inline members.
func checkpointLike(pages int, stamp byte) store.FileSet {
	mem := make([]byte, pages*128)
	for i := range mem {
		mem[i] = byte(i/128) ^ stamp
	}
	return store.FileSet{
		"mem":  mem,
		"meta": []byte(fmt.Sprintf("checkpoint stamp=%d", stamp)),
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	c := testClient(srv, "")

	// One plain object, one chunked checkpoint.
	plain := store.FileSet{"elfie.bin": bytes.Repeat([]byte("ELFIE"), 400), "region.json": []byte(`{"r":1}`)}
	ePlain, err := a.Put("region-1", "region", plain)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := checkpointLike(40, 0)
	eCkpt, err := a.PutChunked("ckpt-1", "checkpoint", ckpt, 128)
	if err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"region-1", "ckpt-1"} {
		if _, err := c.Push(a, key); err != nil {
			t.Fatalf("push %s: %v", key, err)
		}
	}
	for _, key := range []string{"region-1", "ckpt-1"} {
		if _, _, err := c.Pull(b, key); err != nil {
			t.Fatalf("pull %s: %v", key, err)
		}
	}

	// Byte-identical across stores, same content addresses.
	gotPlain, e2, ok, err := b.Get("region-1")
	if err != nil || !ok {
		t.Fatalf("b.Get(region-1): ok=%v err=%v", ok, err)
	}
	if e2.Object != ePlain.Object {
		t.Fatalf("plain object id changed across the wire: %s vs %s", e2.Object, ePlain.Object)
	}
	for name, data := range plain {
		if !bytes.Equal(gotPlain[name], data) {
			t.Fatalf("member %s differs after round trip", name)
		}
	}
	gotCkpt, e3, ok, err := b.Get("ckpt-1")
	if err != nil || !ok {
		t.Fatalf("b.Get(ckpt-1): ok=%v err=%v", ok, err)
	}
	if e3.Object != eCkpt.Object {
		t.Fatalf("chunked object id changed across the wire: %s vs %s", e3.Object, eCkpt.Object)
	}
	if !bytes.Equal(gotCkpt["mem"], ckpt["mem"]) {
		t.Fatal("chunked member differs after round trip")
	}
	// The receiving store passes its own deep verification.
	rep, err := b.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("verify pulled store: err=%v problems=%v", err, rep.Problems)
	}
}

// TestSecondPushShipsOnlyDirtyPages is the page-dedup promise over the
// wire: a near-identical checkpoint re-pushes only the chunks it changed.
func TestSecondPushShipsOnlyDirtyPages(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	c := testClient(srv, "")

	base := checkpointLike(64, 0)
	if _, err := a.PutChunked("ckpt-1", "checkpoint", base, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(a, "ckpt-1"); err != nil {
		t.Fatal(err)
	}

	// Dirty exactly 3 pages.
	next := store.FileSet{"mem": append([]byte(nil), base["mem"]...), "meta": base["meta"]}
	for _, page := range []int{3, 17, 41} {
		copy(next["mem"][page*128:(page+1)*128], bytes.Repeat([]byte{0xAB}, 128))
	}
	if _, err := a.PutChunked("ckpt-2", "checkpoint", next, 128); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Push(a, "ckpt-2")
	if err != nil {
		t.Fatal(err)
	}
	// What must move: the 3 dirty chunk objects plus the new top object
	// (chunks.json changed), in its canonical form. The 61 clean pages —
	// the bulk of the checkpoint — must not cross the wire again.
	if stats.Skipped < 61 {
		t.Fatalf("second push skipped only %d chunk objects; dedup negotiation failed", stats.Skipped)
	}
	top2, _, _, err := a.GetRaw("ckpt-2")
	if err != nil {
		t.Fatal(err)
	}
	if max := 3*128 + canonicalSize(top2); stats.Bytes > max {
		t.Fatalf("second push moved %d bytes, want at most %d (3 dirty pages + top object)",
			stats.Bytes, max)
	}
}

// TestWarmTransfersAreZero: pushing content the registry holds, or pulling
// content the local store holds, moves no payload at all, and a warm push
// reads no object on the server.
func TestWarmTransfersAreZero(t *testing.T) {
	serverStore, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	c := testClient(srv, "")

	if _, err := a.PutChunked("k", "checkpoint", checkpointLike(32, 1), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	// Warm push: the server's index answers If-None-Match with a 304. Hide
	// the server's copy of the object meanwhile, so a push that read it
	// would fail.
	e, _ := a.Stat("k")
	objDir := filepath.Join(serverStore.Root(), "objects", e.Object[:2], e.Object)
	if err := os.Rename(objDir, objDir+".hidden"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Push(a, "k")
	if err := os.Rename(objDir+".hidden", objDir); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatalf("warm push read the server's object: %v", err)
	}
	if st.Sent != 0 || st.Bytes != 0 {
		t.Fatalf("warm push moved %d blobs / %d bytes", st.Sent, st.Bytes)
	}

	if _, _, err := c.Pull(b, "k"); err != nil {
		t.Fatal(err)
	}
	_, st2, err := c.Pull(b, "k") // warm pull: If-None-Match answers 304
	if err != nil {
		t.Fatal(err)
	}
	if st2.Received != 0 || st2.Bytes != 0 {
		t.Fatalf("warm pull moved %d blobs / %d bytes", st2.Received, st2.Bytes)
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("duplicate transfers: %v", dups)
	}
}

// TestPushCheckReadsNoObject: the push's "already there?" check is
// answered from the registry's index even when the key holds a different
// object, so re-pointing a key reads nothing of what it held before.
func TestPushCheckReadsNoObject(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	c := testClient(srv, "")
	old, err := a.Put("k", "region", store.FileSet{"f": []byte("old")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	objDir := filepath.Join(serverStore.Root(), "objects", old.Object[:2], old.Object)
	if err := os.Rename(objDir, objDir+".hidden"); err != nil {
		t.Fatal(err)
	}
	defer os.Rename(objDir+".hidden", objDir)

	next, err := b.Put("k", "region", store.FileSet{"f": []byte("new")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(b, "k"); err != nil {
		t.Fatalf("push over another object read it: %v", err)
	}
	if got, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + "k"); !ok || got.Object != next.Object {
		t.Fatalf("key not re-pointed to the pushed object: %+v", got)
	}
}

// TestPushResumesAfterCrash kills the pushing client between completed
// pieces and chunk transfers — the moral equivalent of SIGKILL — and proves
// the resumed push re-sends no completed chunk and no staged byte range,
// and the committed artifact is intact.
func TestPushResumesAfterCrash(t *testing.T) {
	serverStore, tl, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	e, err := a.PutChunked("ckpt", "checkpoint", checkpointLike(48, 2), 128)
	if err != nil {
		t.Fatal(err)
	}

	crashed := 0
	for crashAt := 1; ; crashAt += 7 {
		// A fresh client per attempt: a SIGKILLed process restarts with no
		// in-memory state, only what the server staged durably.
		c := testClient(srv, "")
		c.CrashAfter = crashAt
		_, err := c.Push(a, "ckpt")
		if err == nil {
			break
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatal(err)
		}
		crashed++
		if crashed > 100 {
			t.Fatal("push never completed")
		}
	}
	if crashed == 0 {
		t.Fatal("test never exercised a crash; lower the crash stride")
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("resumed pushes re-sent completed units: %v", dups)
	}
	got, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + "ckpt")
	if !ok || got.Object != e.Object {
		t.Fatalf("committed artifact wrong: ok=%v", ok)
	}
	rep, err := serverStore.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("server store after crashy upload: err=%v problems=%v", err, rep.Problems)
	}
}

// TestPullResumesAfterCrash is the download mirror: a client killed
// between completed pieces resumes from its durable stage, re-fetching no
// completed chunk, and the assembled artifact verifies.
func TestPullResumesAfterCrash(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	e, err := a.PutChunked("ckpt", "checkpoint", checkpointLike(48, 3), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "ckpt"); err != nil {
		t.Fatal(err)
	}

	crashed := 0
	for crashAt := 1; ; crashAt += 7 {
		c := testClient(srv, "")
		c.CrashAfter = crashAt
		_, _, err := c.Pull(b, "ckpt")
		if err == nil {
			break
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatal(err)
		}
		crashed++
		if crashed > 100 {
			t.Fatal("pull never completed")
		}
	}
	if crashed == 0 {
		t.Fatal("test never exercised a crash; lower the crash stride")
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("resumed pulls re-fetched completed chunks: %v", dups)
	}
	got, ok := b.Stat("ckpt")
	if !ok || got.Object != e.Object {
		t.Fatalf("pulled artifact wrong: ok=%v", ok)
	}
	rep, err := b.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("local store after crashy pull: err=%v problems=%v", err, rep.Problems)
	}
}

// noise is deterministic, non-repeating filler, so a misplaced or doubled
// byte range cannot assemble into the right member by accident.
func noise(n int, seed uint32) []byte {
	b := make([]byte, n)
	x := seed*2654435761 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// regionLike builds a file set shaped like a region pinball: several
// members larger than one default wire chunk plus small metadata members,
// stored unchunked.
func regionLike() store.FileSet {
	return store.FileSet{
		"r.text":       noise(300_000, 1),
		"r.0.mem":      noise(150_000, 2),
		"r.elfie":      noise(70_000, 3),
		"r.global.log": []byte(`{"version":3,"threads":1}`),
		"r.0.reg":      noise(600, 4),
	}
}

// canonicalSize is the length of a file set's canonical form: per member,
// two 8-byte length frames, the name and the data.
func canonicalSize(files store.FileSet) int64 {
	var n int64
	for name, data := range files {
		n += 16 + int64(len(name)+len(data))
	}
	return n
}

// objectBody fetches the canonical body the registry serves for key.
func objectBody(t *testing.T, srv *httptest.Server, key string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/t/default/artifacts/" + key + "/object")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("object GET: %s %v", resp.Status, err)
	}
	return body
}

// TestPullIsOneGetPerObject pins the cost of a pull: the top object crosses
// in one streamed GET and no manifest GET, so the server reads the object
// once; the payload on the wire is exactly the object's canonical size, and
// the client stages it in one piece per wire chunk.
func TestPullIsOneGetPerObject(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	files := regionLike()
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: srv.URL, Retries: 2}
	if _, err := c.Push(a, "region"); err != nil {
		t.Fatal(err)
	}
	manifestsBefore, _ := tl.snapshot()

	got, stats, err := c.Pull(b, "region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != e.Object || got.Kind != "region" {
		t.Fatalf("pulled object %.12s (%s), pushed %.12s (region)", got.Object, got.Kind, e.Object)
	}

	manifests, gets := tl.snapshot()
	if manifests != manifestsBefore {
		t.Errorf("pull made %d manifest GETs, want none", manifests-manifestsBefore)
	}
	if len(gets) != 1 {
		t.Fatalf("pull made %d object GETs, want 1", len(gets))
	}
	size := canonicalSize(files)
	if gets[0].bytes != size || stats.Bytes != size {
		t.Errorf("payload on the wire %d B, client counted %d B; canonical size %d B", gets[0].bytes, stats.Bytes, size)
	}
	if pieces := int((size + DefaultWireChunk - 1) / DefaultWireChunk); stats.Received != pieces {
		t.Errorf("client accounted %d pieces, want %d (one per wire chunk)", stats.Received, pieces)
	}
}

// stagedBody returns the bytes a crashed pull left staged for its object.
func stagedBody(t *testing.T, s *store.Store) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.Root(), "xfer", "pull-*", "o-*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("staged body: %v %v", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPullResumesMidStream kills a pull inside a multi-piece object body
// and resumes it: the resumed GET asks for exactly the bytes after the
// staged prefix, pinned to the staged object by If-Range, so no completed
// piece crosses the wire twice.
func TestPullResumesMidStream(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	files := store.FileSet{"big": noise(5*256+100, 7), "meta": []byte("meta"), "note": []byte("note")}
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "region"); err != nil {
		t.Fatal(err)
	}
	body := objectBody(t, srv, "region")

	// Three pieces of a six-piece body.
	c := testClient(srv, "")
	c.CrashAfter = 3
	_, crashed, err := c.Pull(b, "region")
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	staged := stagedBody(t, b)
	if len(staged) != 3*256 || !bytes.HasPrefix(body, staged) {
		t.Fatalf("crash left %d staged bytes of %d, want a %d-byte prefix", len(staged), len(body), 3*256)
	}
	_, before := tl.snapshot()

	got, resumed, err := testClient(srv, "").Pull(b, "region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != e.Object {
		t.Fatalf("pulled object %.12s, pushed %.12s", got.Object, e.Object)
	}
	_, gets := tl.snapshot()
	gets = gets[len(before):]
	wantRange, wantIf := fmt.Sprintf("bytes=%d-", len(staged)), `"`+e.Object+`"`
	if len(gets) != 1 || gets[0].rng != wantRange || gets[0].ifRange != wantIf {
		t.Errorf("resume made GETs %+v, want one with Range %q and If-Range %q", gets, wantRange, wantIf)
	}
	if total := crashed.Bytes + resumed.Bytes; total != int64(len(body)) {
		t.Errorf("crashed %d B + resumed %d B moved, want %d B: a piece crossed twice",
			crashed.Bytes, resumed.Bytes, len(body))
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("resumed pull re-fetched completed units: %v", dups)
	}
	rep, err := b.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("local store after mid-stream resume: err=%v problems=%v", err, rep.Problems)
	}
}

// TestPullResumesFullyStagedBody: a pull killed after its last piece was
// staged resumes with a Range past the end; the registry answers 416 for
// the still-current object and the staged body commits with no payload
// crossing again.
func TestPullResumesFullyStagedBody(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	files := store.FileSet{"big": noise(3*256-19, 5)} // 16+3+749 = 768 B: three pieces
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "region"); err != nil {
		t.Fatal(err)
	}
	c := testClient(srv, "")
	c.CrashAfter = 3
	if _, _, err := c.Pull(b, "region"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if n := len(stagedBody(t, b)); int64(n) != canonicalSize(files) {
		t.Fatalf("crash staged %d bytes, want the whole %d-byte body", n, canonicalSize(files))
	}
	got, stats, err := testClient(srv, "").Pull(b, "region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != e.Object || got.Kind != "region" || stats.Bytes != 0 {
		t.Fatalf("resume committed %.12s (%s) moving %d B, want %.12s (region) moving 0 B",
			got.Object, got.Kind, stats.Bytes, e.Object)
	}
	_, gets := tl.snapshot()
	if last := gets[len(gets)-1]; last.rng != "bytes=768-" {
		t.Errorf("resume asked for %q, want %q", last.rng, "bytes=768-")
	}
}

// cutWriter passes through the first left bytes of a response and then
// fails every write, so the handler gives up mid-body.
type cutWriter struct {
	http.ResponseWriter
	left int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		p = p[:w.left]
	}
	n, err := w.ResponseWriter.Write(p)
	w.left -= n
	if err == nil && w.left == 0 {
		err = errors.New("stream cut")
	}
	return n, err
}

// TestPullRetriesBrokenStream: an object stream that dies mid-body is
// retried with a Range from the staged length (a resumption hint, not a
// synced record: the commit's hash checks it), so the pull completes
// without a piece crossing twice. The stream breaks twice on a client
// allowed two attempts: a break after progress must not use up the
// retry budget.
func TestPullRetriesBrokenStream(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	var mu sync.Mutex
	cuts := 2
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if strings.HasSuffix(r.URL.Path, "/object") && cuts > 0 {
			cuts--
			w = &cutWriter{ResponseWriter: w, left: 600}
		}
		mu.Unlock()
		tl.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	a, b := localStore(t), localStore(t)
	files := store.FileSet{"big": noise(6*256+10, 11)}
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "region"); err != nil {
		t.Fatal(err)
	}

	got, stats, err := testClient(flaky, "").Pull(b, "region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != e.Object {
		t.Fatalf("pulled object %.12s, pushed %.12s", got.Object, e.Object)
	}
	_, gets := tl.snapshot()
	var ranges []string
	for _, g := range gets {
		ranges = append(ranges, g.rng)
	}
	want := []string{"", "bytes=512-", "bytes=1024-"}
	if strings.Join(ranges, " ") != strings.Join(want, " ") {
		t.Fatalf("object GETs asked for %q, want %q", ranges, want)
	}
	size := canonicalSize(files) // 1565 B: seven 256-byte pieces
	if stats.Bytes != size || stats.Received != 7 {
		t.Errorf("moved %d B in %d pieces, want %d B in 7", stats.Bytes, stats.Received, size)
	}
}

// TestPullRestartsWhenRangeIgnored: a server that ignores Range answers
// 200 with the whole body; the client must truncate its partial stage and
// take the body from byte 0, not append the full body to it.
func TestPullRestartsWhenRangeIgnored(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	noRange := httptest.NewServer(stripRange(tl))
	t.Cleanup(noRange.Close)
	a, b := localStore(t), localStore(t)
	files := store.FileSet{"big": noise(6*256, 9)}
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "region"); err != nil {
		t.Fatal(err)
	}
	body := objectBody(t, srv, "region")

	c := testClient(srv, "")
	c.CrashAfter = 3
	if _, _, err := c.Pull(b, "region"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if n := len(stagedBody(t, b)); n != 3*256 {
		t.Fatalf("first crash staged %d bytes, want %d", n, 3*256)
	}

	// Resume against the range-ignoring server and crash again two pieces
	// into the restarted body: the stage holds exactly those two pieces.
	c = testClient(noRange, "")
	c.CrashAfter = 2
	if _, _, err := c.Pull(b, "region"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if staged := stagedBody(t, b); !bytes.Equal(staged, body[:2*256]) {
		t.Fatalf("after a 200 restart the stage holds %d bytes, want the body's first %d", len(staged), 2*256)
	}

	got, stats, err := testClient(noRange, "").Pull(b, "region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != e.Object {
		t.Fatalf("pulled object %.12s, pushed %.12s", got.Object, e.Object)
	}
	if stats.Bytes != int64(len(body)) {
		t.Errorf("range-ignoring pull moved %d B, want the whole body's %d B", stats.Bytes, len(body))
	}
	_, gets := tl.snapshot()
	if last := gets[len(gets)-1]; last.rng != "" {
		t.Errorf("registry saw Range %q through the stripping proxy", last.rng)
	}
}

// TestSlashKeysRoundTrip: checkpoint keys like ckpt/<job>/<icount> travel
// percent-encoded and stay one path segment.
func TestSlashKeysRoundTrip(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	c := testClient(srv, "")
	key := "ckpt/region-3-replay/200000"
	if _, err := a.PutChunked(key, "checkpoint", checkpointLike(16, 9), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(a, key); err != nil {
		t.Fatalf("push slash key: %v", err)
	}
	if _, _, err := c.Pull(b, key); err != nil {
		t.Fatalf("pull slash key: %v", err)
	}
	ea, _ := a.Stat(key)
	eb, ok := b.Stat(key)
	if !ok || eb.Object != ea.Object {
		t.Fatalf("slash key artifact mismatched: ok=%v", ok)
	}
	// Traversal-shaped keys are refused at the door.
	if _, err := c.holds("../../etc/passwd", ea.Object); !errors.Is(err, ErrRemote) {
		t.Fatalf("traversal key accepted: %v", err)
	}
}

// TestRangeRead exercises the raw HTTP surface of an object download: the
// body is the canonical form the ETag's object ID hashes, Range and
// If-Range are honored, and If-None-Match answers 304.
func TestRangeRead(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	payload := bytes.Repeat([]byte("0123456789"), 100)
	e, err := a.Put("k", "test", store.FileSet{"data": payload})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	// name length, name, data length, data.
	want := binary.LittleEndian.AppendUint64(nil, 4)
	want = append(want, "data"...)
	want = binary.LittleEndian.AppendUint64(want, uint64(len(payload)))
	want = append(want, payload...)
	if sum := sha256.Sum256(want); hex.EncodeToString(sum[:]) != e.Object {
		t.Fatal("canonical form does not hash to the object ID")
	}

	get := func(hdr ...string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+"/v1/t/default/artifacts/k/object", nil)
		for i := 0; i < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	etag := `"` + e.Object + `"`
	resp, body := get()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) ||
		resp.Header.Get("ETag") != etag || resp.Header.Get(KindHeader) != "test" {
		t.Fatalf("full read: %s, %d bytes, ETag %s, kind %q", resp.Status, len(body),
			resp.Header.Get("ETag"), resp.Header.Get(KindHeader))
	}
	resp, body = get("Range", "bytes=100-199", "If-Range", etag)
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, want[100:200]) {
		t.Fatalf("range read: %s, %d bytes", resp.Status, len(body))
	}
	// An If-Range naming another object voids the range: the whole body.
	resp, body = get("Range", "bytes=100-199", "If-Range", `"`+strings.Repeat("0", 64)+`"`)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("stale If-Range: %s, %d bytes", resp.Status, len(body))
	}
	resp, body = get("If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match: %s, %d bytes", resp.Status, len(body))
	}
}

// TestServerRefusesCorruptObject: an object damaged on the server's disk is
// refused with 422 before any of its bytes are sent, and the puller stages
// and commits nothing.
func TestServerRefusesCorruptObject(t *testing.T) {
	serverStore, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	e, err := a.Put("k", "region", regionLike())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	corruptObjectFile(t, serverStore.Root(), e.Object)

	_, _, err = testClient(srv, "").Pull(b, "k")
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "422") {
		t.Fatalf("pull of a corrupt object: %v, want a 422 rejection", err)
	}
	_, gets := tl.snapshot()
	if last := gets[len(gets)-1]; last.bytes > 1024 {
		t.Errorf("server sent %d bytes for a corrupt object, want only its error", last.bytes)
	}
	if _, ok := b.Stat("k"); ok {
		t.Fatal("corrupt object reached the local store")
	}
	if staged, _ := filepath.Glob(filepath.Join(b.Root(), "xfer", "*", "*")); len(staged) > 0 {
		t.Fatalf("corrupt object left a stage: %v", staged)
	}
}

// TestTenantIsolationAndQuota: namespaces do not leak into each other, a
// closed tenant set rejects strangers, and the byte quota refuses an
// upload before a single byte moves.
func TestTenantIsolationAndQuota(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{
			"alpha": {},
			"beta":  {Quota: 1024},
		},
	})
	a := localStore(t)
	if _, err := a.Put("k", "test", store.FileSet{"f": bytes.Repeat([]byte("x"), 2048)}); err != nil {
		t.Fatal(err)
	}

	if _, err := testClient(srv, "alpha").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	// beta cannot see alpha's artifact.
	if _, err := testClient(srv, "beta").holds("k", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tenant isolation broken: %v", err)
	}
	// beta's quota refuses the 2 KiB artifact at upload-open time.
	if _, err := testClient(srv, "beta").Push(a, "k"); err == nil || !errors.Is(err, ErrRemote) {
		t.Fatalf("quota not enforced: %v", err)
	}
	// Unknown tenants are rejected outright in closed mode.
	if err := testClient(srv, "stranger").Ping(); err != nil {
		t.Fatal(err) // ping is tenant-less and must still work
	}
	if _, err := testClient(srv, "stranger").Entries(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown tenant accepted: %v", err)
	}
}

// TestTenantGCPolicy: one tenant's age policy expires only its own
// entries, and the sweep reclaims the bytes.
func TestTenantGCPolicy(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{
			"ephemeral": {MaxAge: time.Nanosecond},
			"archive":   {},
		},
	})
	a := localStore(t)
	if _, err := a.PutChunked("k", "checkpoint", checkpointLike(32, 4), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "ephemeral").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "archive").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the nanosecond policy age out

	res, err := testClient(srv, "ephemeral").GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredEntries != 1 {
		t.Fatalf("expired %d entries, want 1", res.ExpiredEntries)
	}
	if _, ok := serverStore.Stat(tenantPrefix("ephemeral") + "k"); ok {
		t.Fatal("ephemeral entry survived its GC policy")
	}
	if _, ok := serverStore.Stat(tenantPrefix("archive") + "k"); !ok {
		t.Fatal("archive tenant's entry was collateral damage")
	}
	// The archive copy still verifies: shared chunks were not swept.
	rep, err := serverStore.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("post-GC verify: err=%v problems=%v", err, rep.Problems)
	}
}

// TestVerifyEndpoint: the server-side deep verify reports damage a client
// would otherwise discover only after downloading.
func TestVerifyEndpoint(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	if _, err := a.Put("good", "test", store.FileSet{"f": []byte("fine")}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put("bad", "test", store.FileSet{"f": bytes.Repeat([]byte("doomed"), 100)}); err != nil {
		t.Fatal(err)
	}
	c := testClient(srv, "")
	for _, k := range []string{"good", "bad"} {
		if _, err := c.Push(a, k); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Verify(false)
	if err != nil || !rep.OK() {
		t.Fatalf("clean store reported problems: err=%v %+v", err, rep)
	}

	// Flip bits inside the bad entry's object on the server's disk.
	e, _ := serverStore.Stat(tenantPrefix(DefaultTenant) + "bad")
	corruptObjectFile(t, serverStore.Root(), e.Object)

	rep, err = c.Verify(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 || rep.Problems[0].Key != "bad" {
		t.Fatalf("verify problems: %+v", rep.Problems)
	}
}

// TestPullThroughCache: local misses fill from the registry once, then hit
// locally; keys absent on both sides are plain misses.
func TestPullThroughCache(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	c := testClient(srv, "")
	if _, err := a.PutChunked("k", "checkpoint", checkpointLike(32, 5), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(a, "k"); err != nil {
		t.Fatal(err)
	}

	pt := NewPullThrough(b, testClient(srv, ""))
	if _, _, ok, err := pt.Get("nope"); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	files, _, ok, err := pt.Get("k")
	if err != nil || !ok {
		t.Fatalf("pull-through Get: ok=%v err=%v", ok, err)
	}
	if len(files["mem"]) != 32*128 {
		t.Fatalf("pull-through content wrong: %d bytes", len(files["mem"]))
	}
	if _, _, ok, _ = pt.Get("k"); !ok {
		t.Fatal("second Get missed")
	}
	if pt.Fills() != 1 || pt.Hits() != 1 || pt.Misses() != 1 {
		t.Fatalf("counters: fills=%d hits=%d misses=%d", pt.Fills(), pt.Hits(), pt.Misses())
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("pull-through re-fetched: %v", dups)
	}

	// Write-through publishes producer-side Puts.
	wt := NewPullThrough(a, testClient(srv, ""))
	wt.PushOnPut = true
	if _, err := wt.Put("produced", "region", store.FileSet{"f": []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").holds("produced", ""); err != nil {
		t.Fatalf("PushOnPut did not publish: %v", err)
	}
}

// TestChunkReadsAreTenantScoped: in closed-tenant mode a namespace is a
// confidentiality boundary, not just accounting — one tenant's chunk hashes
// must not read out (or even confirm the existence of) another tenant's
// checkpoint pages, via raw object GETs or upload-needs negotiation.
func TestChunkReadsAreTenantScoped(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{"alpha": {}, "beta": {}},
	})
	a := localStore(t)
	if _, err := a.PutChunked("k", "checkpoint", checkpointLike(16, 6), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "alpha").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	e, ok := serverStore.Stat(tenantPrefix("alpha") + "k")
	if !ok {
		t.Fatal("alpha's artifact missing server-side")
	}
	refs := serverStore.ChunkRefs(e.Object)
	if len(refs) == 0 {
		t.Fatal("artifact has no chunks; test needs a chunked one")
	}
	get := func(tenant, id string) int {
		resp, err := http.Get(srv.URL + "/v1/t/" + tenant + "/objects/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("alpha", refs[0]); code != http.StatusOK {
		t.Fatalf("owner denied its own chunk: %d", code)
	}
	// beta holds a perfectly valid hash of alpha's page — and gets the
	// same answer as for a chunk that does not exist at all.
	if code := get("beta", refs[0]); code != http.StatusNotFound {
		t.Fatalf("cross-tenant chunk read allowed: %d", code)
	}

	// Needs negotiation must not confirm cross-tenant presence either: a
	// beta push of the identical artifact is asked for every chunk, even
	// though the store already holds them all (they dedup on disk anyway).
	stats, err := testClient(srv, "beta").Push(a, "k")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 {
		t.Fatalf("closed-mode negotiation leaked %d cross-tenant chunk presences", stats.Skipped)
	}
	// Once beta's own entry references the chunks, beta may read them.
	if code := get("beta", refs[0]); code != http.StatusOK {
		t.Fatalf("referencing tenant denied its chunk: %d", code)
	}
}

// openUpload declares an upload of the canonical body under key by hand,
// as a client would before streaming it, and returns the server's answer.
func openUpload(t *testing.T, c *Client, key string, body []byte) UploadStatus {
	t.Helper()
	man := UploadManifest{Key: key, Kind: "test", Object: sha(body), Size: int64(len(body))}
	manBytes, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := c.do("POST", c.turl("uploads"), nil, manBytes)
	if err != nil {
		t.Fatal(err)
	}
	var st UploadStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// putRange uploads body[from:to] of a declared upload as one object PUT.
func putRange(c *Client, id string, body []byte, from, to int) error {
	hdr := http.Header{}
	hdr.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to-1, len(body)))
	_, _, err := c.do("PUT", c.turl("uploads", id, "object"), hdr, body[from:to])
	return err
}

// backdate sets the mtime of an upload session's directory and of every
// file in it to when.
func backdate(t *testing.T, dir string, when time.Time) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if err := os.Chtimes(filepath.Join(dir, ent.Name()), when, when); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(dir, when, when); err != nil {
		t.Fatal(err)
	}
}

// TestGCSweepsAbandonedUploads: an upload session opened and never
// committed is reclaimed by tenant GC once idle past the grace window —
// staged bytes must not accumulate forever.
func TestGCSweepsAbandonedUploads(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	c := testClient(srv, "")
	body := frame("f", []byte("abandoned"))
	st := openUpload(t, c, "aband", body)
	if err := putRange(c, st.ID, body, 0, 10); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(serverStore.Root(), "uploads", DefaultTenant, st.ID)
	if _, err := os.Stat(filepath.Join(dir, "object")); err != nil {
		t.Fatalf("object prefix not staged: %v", err)
	}

	// Fresh sessions survive GC (someone may still resume them)…
	res, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleUploads != 0 {
		t.Fatalf("GC swept a fresh upload session: %+v", res)
	}
	// …but a session idle past the grace is debris.
	backdate(t, dir, time.Now().Add(-2*uploadGrace))
	res, err = c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleUploads != 1 {
		t.Fatalf("stale upload not swept: %+v", res)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("stale session dir survived GC")
	}
}

// TestGCKeepsUploadWithFreshStage: appending to the object stage refreshes
// the stage file's mtime but not its directory's, so GC must judge a
// session by its newest file. A session whose directory is old but whose
// stage grew within the grace survives; once its stage is idle too, it is
// reclaimed.
func TestGCKeepsUploadWithFreshStage(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	c := testClient(srv, "")
	body := frame("f", noise(600, 13))
	st := openUpload(t, c, "busy", body)
	if err := putRange(c, st.ID, body, 0, 100); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(serverStore.Root(), "uploads", DefaultTenant, st.ID)
	old := time.Now().Add(-2 * uploadGrace)
	backdate(t, dir, old)
	if err := putRange(c, st.ID, body, 100, 300); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(dir); err != nil || time.Since(info.ModTime()) < uploadGrace {
		t.Fatalf("appending refreshed the session directory's mtime (%v); the test needs it stale", err)
	}
	res, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleUploads != 0 {
		t.Fatalf("GC swept an upload whose stage grew within the grace: %+v", res)
	}
	backdate(t, dir, old)
	if res, err = c.GC(); err != nil {
		t.Fatal(err)
	}
	if res.StaleUploads != 1 {
		t.Fatalf("idle upload not swept: %+v", res)
	}
}

// TestStagedBytesCountAgainstQuota: parking object bytes across
// never-committed sessions is charged like committed bytes — the quota
// cannot be bypassed by simply not committing.
func TestStagedBytesCountAgainstQuota(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{"q": {Quota: 1024}},
	})
	c := testClient(srv, "q")
	one := frame("f", bytes.Repeat([]byte("a"), 600))
	two := frame("f", bytes.Repeat([]byte("b"), 600))
	// Each session alone fits the 1 KiB quota, and nothing but a manifest
	// is staged when the second opens, so admission lets both open;
	// streaming the second object would park 1234 staged bytes and must be
	// refused.
	st1 := openUpload(t, c, "k1", one)
	st2 := openUpload(t, c, "k2", two)
	if err := putRange(c, st1.ID, one, 0, len(one)); err != nil {
		t.Fatalf("first staged object within quota rejected: %v", err)
	}
	if err := putRange(c, st2.ID, two, 0, len(two)); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), "quota") {
		t.Fatalf("staged bytes bypassed the quota: %v", err)
	}
}

// TestStagedBytesPastQuotaRefusePuts: once the tenant's staged bytes
// exceed its quota — opening one more session can push them past it, since
// its manifest is staged too — every object PUT is refused with 413 before
// it stages a byte, however little it carries, and so is every fresh
// session: upload-open charges the tenant's staged bytes, so manifests
// cannot pile up past the quota.
func TestStagedBytesPastQuotaRefusePuts(t *testing.T) {
	const quota = 1024
	serverStore, _, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{"q": {Quota: quota}},
	})
	c := testClient(srv, "q")
	uploads := filepath.Join(serverStore.Root(), "uploads", "q")
	staged := func() (n int64) {
		filepath.Walk(uploads,
			func(_ string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() {
					n += info.Size()
				}
				return nil
			})
		return n
	}
	body := frame("f", bytes.Repeat([]byte("a"), 600))
	st := openUpload(t, c, "k0", body)
	if err := putRange(c, st.ID, body, 0, len(body)); err != nil {
		t.Fatalf("first staged object within quota rejected: %v", err)
	}
	// Each further session declares a small object that fits beside the
	// staged bytes; its manifest alone grows the staged total.
	small := frame("f", []byte("0123456789"))
	for i := 1; staged() <= quota; i++ {
		if i > 16 {
			t.Fatalf("session manifests never pushed staged bytes past the quota (%d B)", staged())
		}
		st = openUpload(t, c, fmt.Sprintf("k%d", i), small)
	}
	before := staged()
	hdr := http.Header{}
	hdr.Set("Content-Range", fmt.Sprintf("bytes 0-9/%d", len(small)))
	resp, _, err := c.do("PUT", c.turl("uploads", st.ID, "object"), hdr, small[:10])
	if !errors.Is(err, ErrRemote) || resp == nil || resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT with %d staged bytes over a %d B quota: %v, want a 413 refusal", before, quota, err)
	}
	_, data, err := c.do("GET", c.turl("uploads", st.ID), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var now UploadStatus
	if err := json.Unmarshal(data, &now); err != nil {
		t.Fatal(err)
	}
	if now.Staged != 0 || staged() != before {
		t.Fatalf("refused PUT staged %d B (tenant staged %d B, was %d B)", now.Staged, staged(), before)
	}

	// A fresh session is refused at open, before it writes a manifest.
	sessions, _ := os.ReadDir(uploads)
	man, err := json.Marshal(&UploadManifest{Key: "late", Kind: "test", Object: sha(small), Size: int64(len(small))})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err = c.do("POST", c.turl("uploads"), nil, man)
	if !errors.Is(err, ErrRemote) || resp == nil || resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("open with %d staged bytes over a %d B quota: %v, want a 413 refusal", before, quota, err)
	}
	if after, _ := os.ReadDir(uploads); len(after) != len(sessions) || staged() != before {
		t.Fatalf("refused open left %d sessions (was %d), %d staged bytes (was %d)",
			len(after), len(sessions), staged(), before)
	}
}

// TestQuotaAdmissionAtTheEdge: upload-open admits on the bytes the session
// will stage — the canonical form, framing included — while commit charges
// the logical size. An artifact whose logical size fills the quota exactly
// is refused at open, before a byte moves; given room for its staged form,
// it commits and is charged its logical size.
func TestQuotaAdmissionAtTheEdge(t *testing.T) {
	files := store.FileSet{"f": noise(2000, 41)}
	logical, size := int64(2000), canonicalSize(files)
	serverStore, tl, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{
			"edge": {Quota: logical},
			"room": {Quota: size + 1024},
		},
	})
	a := localStore(t)
	if _, err := a.Put("k", "test", files); err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "edge").Push(a, "k"); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), fmt.Sprintf("%d incoming", size)) {
		t.Fatalf("push of %d staged bytes under a %d B quota: %v, want refusal at open", size, logical, err)
	}
	if opens, _, puts := tl.uploads(); opens != 1 || len(puts) != 0 {
		t.Fatalf("refused push made %d opens and object PUTs %+v, want one open and no PUT", opens, puts)
	}
	if ents, _ := os.ReadDir(filepath.Join(serverStore.Root(), "uploads", "edge")); len(ents) != 0 {
		t.Fatalf("refused open left %d sessions", len(ents))
	}
	if _, err := testClient(srv, "room").Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	st, err := testClient(srv, "room").Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalBytes != logical {
		t.Fatalf("committed artifact charged %d B, want its logical size %d B", st.LogicalBytes, logical)
	}
}

// hostileRegistry serves one fixed object body for every key, under the
// given ETag, as a malicious or broken registry would.
func hostileRegistry(t *testing.T, etag string, body []byte) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/t/{tenant}/artifacts/{key}/object", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"`+etag+`"`)
		w.Header().Set(KindHeader, "test")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// frame is one member of a canonical body, framed by hand.
func frame(name string, data []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(data)))
	return append(b, data...)
}

func sha(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// TestPullRejectsHostileManifest: the object body is server-supplied, and
// the member names and chunk IDs it carries would become client-side file
// paths — a malicious registry must not write outside the pull stage,
// commit a body that is not the object its ETag names, or leave a refused
// body staged.
func TestPullRejectsHostileManifest(t *testing.T) {
	traversal := frame("../escape", []byte("evil"))
	badChunk := frame("chunks.json",
		[]byte(`{"version":1,"chunk_size":4096,"members":{"m":{"size":4,"chunks":["../../../../etc/passwd"]}}}`))
	honest := frame("f", []byte("fine"))
	for _, tc := range []struct {
		name, etag string
		body       []byte
		want       string
	}{
		{"traversal member name", sha(traversal), traversal, "unsafe member name"},
		{"traversal chunk id", sha(badChunk), badChunk, "invalid chunk id"},
		{"traversal object id", "../../x", honest, "invalid object id"},
		{"body of another object", strings.Repeat("ab", 32), honest, "hashes to"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := localStore(t)
			c := &Client{Base: hostileRegistry(t, tc.etag, tc.body).URL, Retries: 1}
			if _, _, err := c.Pull(b, "evil"); !errors.Is(err, store.ErrCorrupt) ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("hostile body accepted or misreported: %v, want %q", err, tc.want)
			}
			if staged, _ := filepath.Glob(filepath.Join(b.Root(), "xfer", "*", "*")); len(staged) > 0 {
				t.Fatalf("refused body left a stage: %v", staged)
			}
			if _, err := os.Stat(filepath.Join(b.Root(), "xfer", "escape")); !os.IsNotExist(err) {
				t.Fatal("hostile member name escaped the stage")
			}
			if len(b.Entries()) != 0 {
				t.Fatal("hostile body reached the store")
			}
		})
	}
}

// TestPullRejectsNegativeMemberSize: a body's length frames size the
// client's reads, so a length that is negative as a signed integer (or
// otherwise runs past the body) is refused, and nothing stays staged.
func TestPullRejectsNegativeMemberSize(t *testing.T) {
	body := binary.LittleEndian.AppendUint64(nil, 1)
	body = append(body, 'f')
	body = binary.LittleEndian.AppendUint64(body, ^uint64(0)) // -1
	body = append(body, "data"...)
	b := localStore(t)
	c := &Client{Base: hostileRegistry(t, sha(body), body).URL, Retries: 1}
	if _, _, err := c.Pull(b, "evil"); !errors.Is(err, store.ErrCorrupt) ||
		!strings.Contains(err.Error(), "runs past") {
		t.Fatalf("negative member size accepted: %v", err)
	}
	if staged, _ := filepath.Glob(filepath.Join(b.Root(), "xfer", "*", "*")); len(staged) > 0 {
		t.Fatalf("negative member size left a stage: %v", staged)
	}
}

// TestServerRejectsCorruptUpload: an object body that does not hash to its
// declared ID is staged like any other (a stage is only a resumption hint),
// but commit refuses it with 422, wipes its stage, and leaves the store
// untouched; a range that does not continue the stage is refused on
// receipt.
func TestServerRejectsCorruptUpload(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	c := testClient(srv, "")
	good := frame("f", []byte("good"))
	evil := frame("f", []byte("evil"))
	man := UploadManifest{Key: "evil", Kind: "test", Object: sha(good), Size: int64(len(good))}
	manBytes, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := c.do("POST", c.turl("uploads"), nil, manBytes)
	if err != nil {
		t.Fatal(err)
	}
	var st UploadStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}

	// A range past the declared size, or one that skips the staged
	// prefix, never reaches the stage.
	if err := putRange(c, st.ID, append(evil, 'x'), 0, len(evil)+1); !errors.Is(err, ErrRemote) {
		t.Fatalf("range past the declared size accepted: %v", err)
	}
	if err := putRange(c, st.ID, evil, 4, len(evil)); !errors.Is(err, ErrRemote) {
		t.Fatalf("range past the staged prefix accepted: %v", err)
	}
	// Wrong bytes for the declared object: staged, then refused at commit.
	if err := putRange(c, st.ID, evil, 0, len(evil)); err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.do("POST", c.turl("uploads", st.ID, "commit"), nil, nil)
	if !errors.Is(err, ErrRemote) || resp == nil || resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt commit: %v, want a 422 refusal", err)
	}
	if len(serverStore.Entries()) != 0 {
		t.Fatal("corrupt upload reached the store")
	}
	if _, err := os.Stat(filepath.Join(serverStore.Root(), "uploads", DefaultTenant, st.ID)); !os.IsNotExist(err) {
		t.Fatalf("corrupt upload left its stage: %v", err)
	}
}

// TestPushIsOnePutPerObject pins the cost of a push, the mirror of
// TestPullIsOneGetPerObject: an unchunked artifact crosses as one open, one
// streamed object PUT and one commit, with no chunk PUTs; the payload on the
// wire is exactly the object's canonical size, accounted one piece per wire
// chunk.
func TestPushIsOnePutPerObject(t *testing.T) {
	serverStore, tl, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	files := regionLike()
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := (&Client{Base: srv.URL, Retries: 2}).Push(a, "region")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + "region"); !ok || got.Object != e.Object {
		t.Fatalf("pushed artifact not committed as %.12s", e.Object)
	}
	opens, commits, puts := tl.uploads()
	if opens != 1 || commits != 1 || len(puts) != 1 {
		t.Errorf("push made %d opens, %d object PUTs, %d commits; want 1 each", opens, len(puts), commits)
	}
	tl.mu.Lock()
	chunkPuts := len(tl.blobPuts)
	tl.mu.Unlock()
	if chunkPuts != 0 {
		t.Errorf("push of an unchunked artifact made %d chunk PUTs, want none", chunkPuts)
	}
	size := canonicalSize(files)
	if len(puts) == 0 || puts[0].bytes != size || stats.Bytes != size {
		t.Errorf("object PUTs %+v, client counted %d B; canonical size %d B", puts, stats.Bytes, size)
	}
	if pieces := int((size + DefaultWireChunk - 1) / DefaultWireChunk); stats.Sent != pieces {
		t.Errorf("client accounted %d pieces, want %d (one per wire chunk)", stats.Sent, pieces)
	}
}

// tearStage zeroes the second half of a staged prefix: what unsynced pages
// can look like after an OS crash. The length stays, so a resume trusts it.
func tearStage(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clear(data[len(data)/2:])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPullRecoversTornStage: a resumed stage that fails the commit's hash is
// dropped and the body fetched whole once, in the same call, so the pull
// lands the right object instead of failing. The wire carries the resumed
// range plus one whole body.
func TestPullRecoversTornStage(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	files := store.FileSet{"big": noise(6*256+40, 17), "meta": []byte("meta")}
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(srv, "").Push(a, "region"); err != nil {
		t.Fatal(err)
	}
	c := testClient(srv, "")
	c.CrashAfter = 3
	if _, _, err := c.Pull(b, "region"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(b.Root(), "xfer", "pull-*", "o-*"))
	if len(paths) != 1 {
		t.Fatalf("staged bodies: %v", paths)
	}
	tearStage(t, paths[0])
	_, before := tl.snapshot()

	got, stats, err := testClient(srv, "").Pull(b, "region")
	if err != nil {
		t.Fatalf("pull over a torn stage: %v", err)
	}
	if got.Object != e.Object {
		t.Fatalf("pulled object %.12s, pushed %.12s", got.Object, e.Object)
	}
	_, gets := tl.snapshot()
	gets = gets[len(before):]
	size := canonicalSize(files)
	if len(gets) != 2 || gets[0].rng != "bytes=768-" || gets[1].rng != "" {
		t.Fatalf("recovery made GETs %+v, want the resumed range then the whole body", gets)
	}
	if want := size - 3*256 + size; gets[0].bytes+gets[1].bytes != want || stats.Bytes != want {
		t.Errorf("wire carried %d B, client counted %d B; want the resumed range plus one body, %d B",
			gets[0].bytes+gets[1].bytes, stats.Bytes, want)
	}
	if rep, err := b.Verify(); err != nil || !rep.OK() {
		t.Fatalf("local store after torn-stage recovery: err=%v problems=%v", err, rep.Problems)
	}
}

// TestPushRecoversTornStage is the upload mirror: the server's commit
// refuses a resumed stage an OS crash tore and wipes it, and the push sends
// the body whole once more in the same call.
func TestPushRecoversTornStage(t *testing.T) {
	serverStore, tl, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	files := store.FileSet{"big": noise(6*256+40, 19), "meta": []byte("meta")}
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}
	c := testClient(srv, "")
	c.CrashAfter = 3
	if _, err := c.Push(a, "region"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(serverStore.Root(), "uploads", DefaultTenant, "*", "object"))
	if len(paths) != 1 {
		t.Fatalf("staged objects: %v", paths)
	}
	tearStage(t, paths[0])

	stats, err := testClient(srv, "").Push(a, "region")
	if err != nil {
		t.Fatalf("push over a torn stage: %v", err)
	}
	if got, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + "region"); !ok || got.Object != e.Object {
		t.Fatal("push over a torn stage did not commit the object")
	}
	size := canonicalSize(files)
	_, commits, puts := tl.uploads()
	if commits != 2 || len(puts) != 3 || puts[1].first != 3*256 || puts[2].first != 0 {
		t.Fatalf("recovery made %d commits and PUTs %+v, want the resumed range, a refused commit, then the whole body",
			commits, puts)
	}
	if want := size - 3*256 + size; stats.Bytes != want {
		t.Errorf("resumed push moved %d B, want the resumed range plus one body, %d B", stats.Bytes, want)
	}
}

// TestPushRecoversStageTornAfterUpload: an OS crash under the server can
// tear a stage the client sent whole, without killing the client. The
// commit's 422 then restarts the push once from byte 0 even though the push
// resumed nothing; a second refusal fails the push as a remote rejection,
// not as corrupt local input.
func TestPushRecoversStageTornAfterUpload(t *testing.T) {
	serverStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tl := newTransferLog(NewServer(serverStore, ServerOptions{}).Handler())
	var tears atomic.Int32 // commits whose stage is torn before they run
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/commit") && tears.Add(-1) >= 0 {
			paths, _ := filepath.Glob(filepath.Join(serverStore.Root(), "uploads", DefaultTenant, "*", "object"))
			for _, path := range paths {
				if data, err := os.ReadFile(path); err == nil {
					clear(data[len(data)/2:])
					err = os.WriteFile(path, data, 0o644)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}
		tl.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	a := localStore(t)
	files := store.FileSet{"big": noise(6*256+40, 29), "meta": []byte("meta")}
	e, err := a.Put("region", "region", files)
	if err != nil {
		t.Fatal(err)
	}

	tears.Store(1)
	stats, err := testClient(srv, "").Push(a, "region")
	if err != nil {
		t.Fatalf("push over a stage torn after upload: %v", err)
	}
	if got, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + "region"); !ok || got.Object != e.Object {
		t.Fatal("push over a stage torn after upload did not commit the object")
	}
	size := canonicalSize(files)
	_, commits, puts := tl.uploads()
	if commits != 2 || len(puts) != 2 || puts[0].first != 0 || puts[1].first != 0 ||
		puts[0].bytes != size || puts[1].bytes != size {
		t.Fatalf("recovery made %d commits and PUTs %+v, want the whole body, a refused commit, the whole body again",
			commits, puts)
	}
	if stats.Resumed != 0 || stats.Bytes != 2*size {
		t.Errorf("push resumed %d B and moved %d B, want nothing resumed and two whole bodies, %d B",
			stats.Resumed, stats.Bytes, 2*size)
	}

	if _, err := a.Put("other", "region", store.FileSet{"big": noise(300, 31)}); err != nil {
		t.Fatal(err)
	}
	tears.Store(1 << 20)
	_, err = testClient(srv, "").Push(a, "other")
	if !errors.Is(err, ErrRemote) || errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("push whose stage tears every time: %v, want a remote rejection", err)
	}
	if _, commits2, _ := tl.uploads(); commits2-commits != 2 {
		t.Fatalf("push whose stage tears every time made %d commits, want 2 (one restart)", commits2-commits)
	}
	if _, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + "other"); ok {
		t.Fatal("torn upload reached the store")
	}
}

// TestPushResumeReportsStagedPrefix: a push resumed after a crash starts at
// the server's staged length and says so, and the two pushes together move
// the body exactly once.
func TestPushResumeReportsStagedPrefix(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	files := store.FileSet{"big": noise(5*256+7, 23)}
	if _, err := a.Put("region", "region", files); err != nil {
		t.Fatal(err)
	}
	c := testClient(srv, "")
	c.CrashAfter = 2
	crashed, err := c.Push(a, "region")
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	resumed, err := testClient(srv, "").Push(a, "region")
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Bytes != 2*256 || resumed.Resumed != crashed.Bytes ||
		crashed.Bytes+resumed.Bytes != canonicalSize(files) {
		t.Errorf("crashed push moved %d B, resumed push found %d B staged and moved %d B; body is %d B",
			crashed.Bytes, resumed.Resumed, resumed.Bytes, canonicalSize(files))
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("resumed push re-sent staged bytes: %v", dups)
	}
}

// TestConcurrentPushesAndGC: pushes of distinct artifacts, each killed
// mid-stream and resumed, run at once beside tenant GCs; every artifact
// lands whole and no byte range crosses twice.
func TestConcurrentPushesAndGC(t *testing.T) {
	serverStore, tl, srv := testRegistry(t, ServerOptions{})
	a := localStore(t)
	const n = 4
	want := make([]string, n)
	for i := range want {
		e, err := a.Put(fmt.Sprintf("r%d", i), "region", store.FileSet{"big": noise(8*256+i, uint32(30+i))})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e.Object
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			c := testClient(srv, "")
			c.CrashAfter = 3
			if _, err := c.Push(a, key); !errors.Is(err, ErrCrashed) {
				t.Errorf("push %s: want simulated crash, got %v", key, err)
				return
			}
			if _, err := testClient(srv, "").Push(a, key); err != nil {
				t.Errorf("resumed push %s: %v", key, err)
			}
		}(fmt.Sprintf("r%d", i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := testClient(srv, "").GC(); err != nil {
				t.Errorf("gc: %v", err)
			}
		}
	}()
	wg.Wait()
	for i, obj := range want {
		if got, ok := serverStore.Stat(tenantPrefix(DefaultTenant) + fmt.Sprintf("r%d", i)); !ok || got.Object != obj {
			t.Errorf("r%d not committed as %.12s", i, obj)
		}
	}
	if dups := tl.duplicates(); len(dups) > 0 {
		t.Fatalf("concurrent pushes re-sent staged bytes: %v", dups)
	}
}

// TestPingRefusesOtherVersion: a client fails fast against a registry that
// speaks another protocol version instead of misparsing its answers.
func TestPingRefusesOtherVersion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, PingResponse{OK: true, Version: ProtocolVersion - 1})
	}))
	t.Cleanup(srv.Close)
	if err := (&Client{Base: srv.URL}).Ping(); err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("ping across protocol versions: %v", err)
	}
}
