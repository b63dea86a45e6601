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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"elfie/internal/store"
)

// transferLog wraps the registry handler and records every payload
// transfer, so tests can prove "zero re-sent chunks" structurally: a blob
// PUT or chunk GET that repeats is a protocol failure, not just waste.
type transferLog struct {
	next http.Handler

	mu           sync.Mutex
	blobPuts     map[string]int // blob id -> times received
	objGets      map[string]int // chunk object id -> times served
	manifestGets int            // artifact manifest GETs (one object read each)
	topGets      []topGet       // top-object GETs (one object read each), in arrival order
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
	l.mu.Unlock()
	if r.Method == http.MethodGet && len(parts) >= 3 && parts[len(parts)-3] == "artifacts" && last == "object" {
		cw := &countingWriter{ResponseWriter: w}
		l.next.ServeHTTP(cw, r)
		l.mu.Lock()
		l.topGets = append(l.topGets, topGet{rng: r.Header.Get("Range"), ifRange: r.Header.Get("If-Range"), bytes: cw.n})
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
			dups = append(dups, fmt.Sprintf("blob %s put %d times", id[:12], n))
		}
	}
	for id, n := range l.objGets {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("chunk %s fetched %d times", id[:12], n))
		}
	}
	return dups
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
	// (chunks.json changed, so its wire blobs are new). The 61 clean pages
	// — the bulk of the checkpoint — must not cross the wire again.
	if stats.Skipped < 61 {
		t.Fatalf("second push skipped only %d chunk objects; dedup negotiation failed", stats.Skipped)
	}
	top2, _, _, err := a.GetRaw("ckpt-2")
	if err != nil {
		t.Fatal(err)
	}
	var topBytes int64
	for _, data := range top2 {
		topBytes += int64(len(data))
	}
	if max := 3*128 + topBytes; stats.Bytes > max {
		t.Fatalf("second push moved %d bytes, want at most %d (3 dirty pages + top object)",
			stats.Bytes, max)
	}
}

// TestWarmTransfersAreZero: pushing content the registry holds, or pulling
// content the local store holds, moves no payload at all.
func TestWarmTransfersAreZero(t *testing.T) {
	_, tl, srv := testRegistry(t, ServerOptions{})
	a, b := localStore(t), localStore(t)
	c := testClient(srv, "")

	if _, err := a.PutChunked("k", "checkpoint", checkpointLike(32, 1), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(a, "k"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Push(a, "k") // warm push: ETag short-circuits
	if err != nil {
		t.Fatal(err)
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

// TestPushResumesAfterCrash kills the pushing client between completed
// blob transfers — the moral equivalent of SIGKILL — and proves the
// resumed push re-sends zero completed chunks and the committed artifact
// is intact.
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
		t.Fatalf("resumed pushes re-sent completed blobs: %v", dups)
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
// fsynced stage, pinned to the staged object by If-Range, so no completed
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
// retried with a Range from the fsynced length, so the pull completes
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
	if _, err := c.Stat("../../etc/passwd", ""); !errors.Is(err, ErrRemote) {
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
	if _, err := testClient(srv, "beta").Stat("k", ""); !errors.Is(err, ErrNotFound) {
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
	if _, err := testClient(srv, "").Stat("produced", ""); err != nil {
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

// TestGCSweepsAbandonedUploads: an upload session opened and never
// committed is reclaimed by tenant GC once idle past the grace window —
// staged blobs must not accumulate forever.
func TestGCSweepsAbandonedUploads(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	c := testClient(srv, "")
	top := store.FileSet{"f": []byte("abandoned")}
	man := UploadManifest{
		Key: "aband", Kind: "test", Object: store.ObjectID(top),
		Top: map[string]MemberPlan{
			"f": {Size: int64(len(top["f"])), Blobs: []BlobRef{{ID: blobID(top["f"]), Size: int64(len(top["f"]))}}},
		},
	}
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
	if _, _, err := c.do("PUT", c.turl("uploads", st.ID, "blobs", man.Top["f"].Blobs[0].ID),
		nil, top["f"]); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(serverStore.Root(), "uploads", DefaultTenant, st.ID)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("session dir not staged: %v", err)
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
	old := time.Now().Add(-2 * uploadGrace)
	if err := os.Chtimes(dir, old, old); err != nil {
		t.Fatal(err)
	}
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

// TestStagedBytesCountAgainstQuota: parking blobs across never-committed
// sessions is charged like committed bytes — the quota cannot be bypassed
// by simply not committing.
func TestStagedBytesCountAgainstQuota(t *testing.T) {
	_, _, srv := testRegistry(t, ServerOptions{
		Tenants: map[string]Tenant{"q": {Quota: 1024}},
	})
	c := testClient(srv, "q")
	open := func(key string, payload []byte) UploadStatus {
		t.Helper()
		top := store.FileSet{"f": payload}
		man := UploadManifest{
			Key: key, Kind: "test", Object: store.ObjectID(top),
			Top: map[string]MemberPlan{
				"f": {Size: int64(len(payload)), Blobs: []BlobRef{{ID: blobID(payload), Size: int64(len(payload))}}},
			},
		}
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
	one := bytes.Repeat([]byte("a"), 600)
	two := bytes.Repeat([]byte("b"), 600)
	st1 := open("k1", one)
	if _, _, err := c.do("PUT", c.turl("uploads", st1.ID, "blobs", blobID(one)), nil, one); err != nil {
		t.Fatalf("first staged blob within quota rejected: %v", err)
	}
	// Each session alone fits the 1 KiB quota, so admission lets both
	// open; the second blob PUT would park 1200 staged bytes and must be
	// refused.
	st2 := open("k2", two)
	if _, _, err := c.do("PUT", c.turl("uploads", st2.ID, "blobs", blobID(two)), nil, two); !errors.Is(err, ErrRemote) {
		t.Fatalf("staged bytes bypassed the quota: %v", err)
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

// TestServerRejectsCorruptUpload: a blob that does not hash to its
// declared ID is refused at the door, and a manifest whose assembly does
// not hash to its declared object never lands in the store.
func TestServerRejectsCorruptUpload(t *testing.T) {
	serverStore, _, srv := testRegistry(t, ServerOptions{})
	man := UploadManifest{
		Key: "evil", Kind: "test",
		Object: strings.Repeat("ab", 32),
		Top: map[string]MemberPlan{
			"f": {Size: 4, Blobs: []BlobRef{{ID: blobID([]byte("good")), Size: 4}}},
		},
	}
	c := testClient(srv, "")
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

	// Wrong bytes for the declared blob: rejected.
	if _, _, err := c.do("PUT", c.turl("uploads", st.ID, "blobs", man.Top["f"].Blobs[0].ID),
		nil, []byte("evil")); !errors.Is(err, ErrRemote) {
		t.Fatalf("corrupt blob accepted: %v", err)
	}
	// Right bytes, but the assembled object cannot hash to the fake
	// object ID: commit refused, store untouched.
	if _, _, err := c.do("PUT", c.turl("uploads", st.ID, "blobs", man.Top["f"].Blobs[0].ID),
		nil, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do("POST", c.turl("uploads", st.ID, "commit"), nil, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("corrupt commit accepted: %v", err)
	}
	if len(serverStore.Entries()) != 0 {
		t.Fatal("corrupt upload reached the store")
	}
}
