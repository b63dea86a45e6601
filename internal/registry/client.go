package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"elfie/internal/farm"
	"elfie/internal/store"
)

// ErrNotFound marks a key or object the registry does not hold.
var ErrNotFound = errors.New("registry: not found")

// ErrCrashed is returned once a test-configured crash point is reached —
// it simulates the client process being SIGKILLed between blob transfers,
// the exact point a resumed transfer must pick up from.
var ErrCrashed = errors.New("registry: transfer crashed (simulated)")

// ErrRemote wraps a non-retryable registry rejection (4xx).
var ErrRemote = errors.New("registry: remote rejected request")

// Client talks to one registry on behalf of one tenant. The zero value is
// not usable; set Base. All transfers are resumable: a client killed at any
// instant re-runs the same Push/Pull and moves only what is still missing.
type Client struct {
	// Base is the registry root, e.g. "http://buildhost:9535".
	Base string
	// Tenant is the namespace (DefaultTenant when empty).
	Tenant string
	// HTTP overrides the transport (default: 30s-timeout client).
	HTTP *http.Client
	// Backoff is the retry-delay policy for transient failures — the
	// farm's capped-exponential seeded-jitter policy, so a fleet of
	// clients retrying against one registry spreads out instead of
	// stampeding. Nil means no delay between retries.
	Backoff *farm.Backoff
	// Retries is attempts per request (default 4).
	Retries int
	// WireChunk is the upload blob granularity (default DefaultWireChunk).
	WireChunk int
	// CrashAfter, when positive, makes the client return ErrCrashed after
	// that many blob/chunk transfers — the test hook for killing a
	// transfer between completed units.
	CrashAfter int

	// transferred counts completed blob/chunk payload transfers (uploads
	// and downloads), the currency of resume proofs: a resumed transfer's
	// count plus the crashed one's must equal a cold transfer's.
	transferred atomic.Int64
}

// TransferStats accounts one Push or Pull.
type TransferStats struct {
	// Sent/Received count payload units that actually moved: upload blobs
	// and chunks, or a download's wire-chunk pieces and chunks.
	Sent, Received int
	// Skipped counts units the far side already had (upload negotiation)
	// or the near side already held (local chunks, a staged prefix).
	Skipped int
	// Bytes is the payload volume that moved.
	Bytes int64
}

// Transferred reports the client's lifetime completed payload transfers.
func (c *Client) Transferred() int64 { return c.transferred.Load() }

func (c *Client) tenant() string {
	if c.Tenant == "" {
		return DefaultTenant
	}
	return c.Tenant
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

func (c *Client) turl(parts ...string) string {
	u := c.Base + "/v1/t/" + url.PathEscape(c.tenant())
	for _, p := range parts {
		u += "/" + url.PathEscape(p)
	}
	return u
}

// bump accounts one completed payload transfer and trips the crash hook.
func (c *Client) bump() error {
	n := c.transferred.Add(1)
	if c.CrashAfter > 0 && n >= int64(c.CrashAfter) {
		return ErrCrashed
	}
	return nil
}

// do issues one request with retry: transient failures (network errors,
// 5xx) back off and retry under the farm policy; 4xx rejections and
// 404s fail immediately. body is re-sendable bytes (nil for none). The
// response body is fully read and returned.
func (c *Client) do(method, u string, hdr http.Header, body []byte) (*http.Response, []byte, error) {
	var lastErr error
	for attempt := 1; attempt <= c.retries(); attempt++ {
		if attempt > 1 && c.Backoff != nil {
			time.Sleep(c.Backoff.Delay(u, attempt-1))
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, u, rd)
		if err != nil {
			return nil, nil, err
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if retry, err := statusErr(method, u, resp, data); err != nil {
			if retry {
				lastErr = err
				continue
			}
			return resp, data, err
		}
		return resp, data, nil
	}
	return nil, nil, fmt.Errorf("registry: %s %s failed after %d attempts: %w",
		method, u, c.retries(), lastErr)
}

// statusErr classifies a response status: nil for success, a retryable
// error for 5xx, and a final ErrNotFound/ErrRemote for 404 and other 4xx.
func statusErr(method, u string, resp *http.Response, data []byte) (retry bool, err error) {
	switch {
	case resp.StatusCode >= 500:
		return true, fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, remoteError(data))
	case resp.StatusCode == http.StatusNotFound:
		return false, fmt.Errorf("%w: %s", ErrNotFound, remoteError(data))
	case resp.StatusCode >= 400:
		return false, fmt.Errorf("%w: %s %s: %s: %s",
			ErrRemote, method, u, resp.Status, remoteError(data))
	}
	return false, nil
}

// remoteError extracts the server's JSON error envelope, falling back to
// the raw body.
func remoteError(data []byte) string {
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}

// Ping checks liveness and protocol compatibility.
func (c *Client) Ping() error {
	_, data, err := c.do("GET", c.Base+"/v1/ping", nil, nil)
	if err != nil {
		return err
	}
	var p PingResponse
	if err := json.Unmarshal(data, &p); err != nil || !p.OK {
		return fmt.Errorf("registry: bad ping response from %s", c.Base)
	}
	if p.Version != ProtocolVersion {
		return fmt.Errorf("registry: protocol version %d, client speaks %d", p.Version, ProtocolVersion)
	}
	return nil
}

// Entries lists the tenant's index.
func (c *Client) Entries() ([]store.Entry, error) {
	_, data, err := c.do("GET", c.turl("entries"), nil, nil)
	if err != nil {
		return nil, err
	}
	var out []store.Entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("registry: entries: %v", err)
	}
	return out, nil
}

// Stat fetches an artifact's manifest; ErrNotFound if absent. A non-empty
// haveObject is sent as If-None-Match: when the registry holds exactly that
// object, Stat returns (nil, nil) — "you are current", zero bytes moved.
func (c *Client) Stat(key, haveObject string) (*ArtifactInfo, error) {
	hdr := http.Header{}
	if haveObject != "" {
		hdr.Set("If-None-Match", `"`+haveObject+`"`)
	}
	resp, data, err := c.do("GET", c.turl("artifacts", key), hdr, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return nil, nil
	}
	var info ArtifactInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("registry: artifact manifest: %v", err)
	}
	return &info, nil
}

// Status reports the tenant's usage and policy.
func (c *Client) Status() (*TenantStatus, error) {
	_, data, err := c.do("GET", c.turl(), nil, nil)
	if err != nil {
		return nil, err
	}
	var st TenantStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("registry: tenant status: %v", err)
	}
	return &st, nil
}

// Verify runs the registry's server-side deep verify over the tenant's
// namespace and returns the wire report.
func (c *Client) Verify(lint bool) (*VerifyReport, error) {
	u := c.turl("verify")
	if !lint {
		u += "?lint=0"
	}
	_, data, err := c.do("POST", u, nil, nil)
	if err != nil {
		return nil, err
	}
	var rep VerifyReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("registry: verify report: %v", err)
	}
	return &rep, nil
}

// GC runs the tenant's GC policy server-side.
func (c *Client) GC() (*GCResult, error) {
	_, data, err := c.do("POST", c.turl("gc"), nil, nil)
	if err != nil {
		return nil, err
	}
	var res GCResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("registry: gc result: %v", err)
	}
	return &res, nil
}

// Push uploads the artifact stored under key in s to the registry, in its
// stored representation (top object + referenced chunk objects), resuming
// any prior interrupted upload of the same content. Content the registry
// already holds — the whole artifact, or individual chunks shared with
// artifacts pushed before — is skipped, so a near-identical checkpoint
// costs only its dirty pages.
func (c *Client) Push(s *store.Store, key string) (*TransferStats, error) {
	e, ok := s.Stat(key)
	if !ok {
		return nil, fmt.Errorf("%w: no local entry %s", ErrNotFound, key)
	}
	stats := &TransferStats{}

	// Warm path: the registry already has this exact object under this key.
	// Both sides answer from their index: the server's 304 reads no object,
	// and the local object is read only when it has to be uploaded.
	if info, err := c.Stat(key, e.Object); err == nil && info == nil {
		return stats, nil
	} else if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	top, e, ok, err := s.GetRaw(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: no local entry %s", ErrNotFound, key)
	}

	// Declare everything, learn what is missing.
	man := UploadManifest{Key: key, Kind: e.Kind, Object: e.Object, Top: make(map[string]MemberPlan)}
	payload := make(map[string][]byte) // blob/chunk id -> bytes
	for name, data := range top {
		plan := planMember(data, c.WireChunk)
		man.Top[name] = plan
		off := int64(0)
		for _, b := range plan.Blobs {
			payload[b.ID] = data[off : off+b.Size]
			off += b.Size
		}
	}
	refs, err := store.ChunkRefsOf(top)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, id := range refs {
		if seen[id] {
			continue
		}
		seen[id] = true
		part, err := s.ReadObject(id)
		if err != nil {
			return nil, err
		}
		man.Chunks = append(man.Chunks, BlobRef{ID: id, Size: int64(len(part["chunk"]))})
		payload[id] = part["chunk"]
	}

	manBytes, err := json.Marshal(&man)
	if err != nil {
		return nil, err
	}
	_, data, err := c.do("POST", c.turl("uploads"), nil, manBytes)
	if err != nil {
		return nil, err
	}
	var st UploadStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("registry: upload status: %v", err)
	}
	if st.Committed {
		return stats, nil
	}
	need := append(append([]string{}, st.NeedBlobs...), st.NeedChunks...)
	stats.Skipped = len(payload) - len(need)

	// Ship only the missing units; each PUT is individually retried, and
	// the crash hook fires between completed units — exactly where a real
	// SIGKILL would leave a resumable boundary.
	for _, id := range need {
		data, ok := payload[id]
		if !ok {
			return nil, fmt.Errorf("registry: server needs undeclared blob %s", id)
		}
		if _, _, err := c.do("PUT", c.turl("uploads", st.ID, "blobs", id), nil, data); err != nil {
			return nil, err
		}
		stats.Sent++
		stats.Bytes += int64(len(data))
		if err := c.bump(); err != nil {
			return stats, err
		}
	}

	_, data, err = c.do("POST", c.turl("uploads", st.ID, "commit"), nil, nil)
	if err != nil {
		return nil, err
	}
	var committed store.Entry
	if err := json.Unmarshal(data, &committed); err != nil {
		return nil, fmt.Errorf("registry: commit response: %v", err)
	}
	if committed.Object != e.Object {
		return nil, fmt.Errorf("registry: committed object %.12s, pushed %.12s",
			committed.Object, e.Object)
	}
	return stats, nil
}

// Pull downloads the artifact under key into s, in its stored
// representation, resuming any prior interrupted download. The top object
// crosses as one streamed GET of its canonical form (the bytes its content
// address hashes); a download cut short continues from its last staged
// piece via an HTTP Range request, and chunks already local — in the store
// or staged by an interrupted pull — are never re-fetched. A local entry
// already holding the registry's object transfers zero bytes.
func (c *Client) Pull(s *store.Store, key string) (*store.Entry, *TransferStats, error) {
	e, _, stats, err := c.pull(s, key)
	return e, stats, err
}

// pull is Pull that also returns the top file set its commit verified, so
// a caller can use the artifact without reading it back. The file set is
// nil when the local copy was already current.
func (c *Client) pull(s *store.Store, key string) (*store.Entry, store.FileSet, *TransferStats, error) {
	stats := &TransferStats{}
	var have string
	if local, ok := s.Stat(key); ok {
		have = local.Object
	}
	// Durable stage: a pull killed at any instant resumes from what this
	// directory already holds.
	st := &pullStage{dir: filepath.Join(s.Root(), "xfer", "pull-"+uploadID(c.tenant(), key, ""))}
	defer st.close()
	kind, current, err := c.fetchObject(st, key, have, stats)
	if err != nil {
		return nil, nil, stats, err
	}
	if current { // 304: the local copy is the registry's object
		st.discard()
		local, _ := s.Stat(key)
		return local, nil, stats, nil
	}
	// The body is server-supplied: its member names and chunk IDs are
	// checked before they name anything on disk, and a refused body is
	// wiped so the caller's retry starts clean.
	top, err := store.ParseCanonical(st.buf)
	var refs []string
	if err == nil {
		refs, err = store.ChunkRefsOf(top)
	}
	if err != nil {
		st.discard()
		return nil, nil, stats, err
	}
	chunks, err := c.fetchChunks(s, st.dir, refs, stats)
	if err != nil {
		return nil, nil, stats, err
	}
	// The commit hashes the top once and refuses it unless it is the object
	// the ETag named.
	e, err := s.PutAssembled(key, kind, st.object, top, chunks)
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) {
			st.discard()
		}
		return nil, nil, stats, err
	}
	st.discard()
	return e, top, stats, nil
}

// fetchChunks returns the data of every chunk in refs the store lacks:
// from the stage when an interrupted pull left it there, else with one GET
// each, staged durably before it counts.
func (c *Client) fetchChunks(s *store.Store, dir string, refs []string, stats *TransferStats) (map[string][]byte, error) {
	chunks := make(map[string][]byte)
	seen := make(map[string]bool)
	for _, id := range refs {
		if seen[id] {
			continue
		}
		seen[id] = true
		if s.HasObject(id) {
			stats.Skipped++
			continue // incremental pull: shared pages already local
		}
		cpath := filepath.Join(dir, "c-"+id)
		if data, err := os.ReadFile(cpath); err == nil &&
			store.ObjectID(store.FileSet{"chunk": data}) == id {
			chunks[id] = data // staged by the interrupted pull
			stats.Skipped++
			continue
		}
		_, data, err := c.do("GET", c.turl("objects", id), nil, nil)
		if err != nil {
			return nil, err
		}
		if store.ObjectID(store.FileSet{"chunk": data}) != id {
			return nil, fmt.Errorf("%w: chunk %.12s arrived damaged", store.ErrCorrupt, id)
		}
		if err := atomicWrite(cpath, data); err != nil {
			return nil, err
		}
		chunks[id] = data
		stats.Received++
		stats.Bytes += int64(len(data))
		if err := c.bump(); err != nil {
			return nil, err
		}
	}
	return chunks, nil
}

// pullStage is the durable state of one top-object download: a prefix of
// the object's canonical form, appended and fsynced piece by piece to
// <dir>/o-<object>.
type pullStage struct {
	dir    string
	object string // the object the staged prefix belongs to; "" when none
	buf    []byte // the staged prefix; the whole body once fetched
	f      *os.File
}

func (st *pullStage) path() string { return filepath.Join(st.dir, "o-"+st.object) }

// load picks up the prefix an interrupted pull left staged and opens it
// for appending the rest of its body.
func (st *pullStage) load() error {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil // nothing staged
	}
	for _, ent := range ents {
		if id, ok := strings.CutPrefix(ent.Name(), "o-"); ok && store.ValidObjectID(id) {
			st.object = id
			if st.buf, err = os.ReadFile(st.path()); err != nil {
				return err
			}
			st.f, err = os.OpenFile(st.path(), os.O_WRONLY|os.O_APPEND, 0o644)
			return err
		}
	}
	return nil
}

// restart empties the stage for a fresh body of object id.
func (st *pullStage) restart(id string) error {
	st.close()
	if st.object != "" && st.object != id {
		if err := os.Remove(st.path()); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	st.object, st.buf = id, st.buf[:0]
	f, err := os.OpenFile(st.path(), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	st.f = f
	return err
}

// extend stages the n bytes just read past the end of buf: they are written
// and fsynced before they count as staged.
func (st *pullStage) extend(n int) error {
	if _, err := st.f.Write(st.buf[len(st.buf) : len(st.buf)+n]); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return err
	}
	st.buf = st.buf[:len(st.buf)+n]
	return nil
}

func (st *pullStage) close() {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
}

// discard closes and removes the stage.
func (st *pullStage) discard() {
	st.close()
	os.RemoveAll(st.dir)
}

// fetchObject fills the stage with key's top object in canonical form. It
// reports current=true, staging nothing, when the registry's object is
// have. The body is consumed in wire-chunk pieces, each fsynced to the
// stage before the next is read: the wire chunk is the unit of durability,
// accounting and crash points, while the request count stays one per
// object. A stream that breaks or answers 5xx is retried under the backoff
// policy with a fresh Range from the fsynced length; a stream that made
// progress gets a fresh retry budget.
func (c *Client) fetchObject(st *pullStage, key, have string, stats *TransferStats) (kind string, current bool, err error) {
	if err := st.load(); err != nil {
		return "", false, err
	}
	if len(st.buf) > 0 {
		stats.Skipped++ // partial progress an interrupted pull left behind
	}
	u := c.turl("artifacts", key, "object")
	var lastErr error
	for attempt := 1; attempt <= c.retries(); attempt++ {
		if attempt > 1 && c.Backoff != nil {
			time.Sleep(c.Backoff.Delay(u, attempt-1))
		}
		pieces := stats.Received
		kind, current, retry, err := c.streamObject(st, u, have, stats)
		if err == nil {
			return kind, current, nil
		}
		if !retry {
			return "", false, err
		}
		lastErr = err
		if stats.Received > pieces {
			attempt = 0 // the stream made progress: fresh retry budget
		}
	}
	return "", false, fmt.Errorf("registry: GET %s failed after %d attempts: %w", u, c.retries(), lastErr)
}

// maxPresize bounds how much of a body's announced length a pull reserves
// up front; a larger body grows as its bytes arrive, so a hostile length
// cannot make the client allocate ahead of the data.
const maxPresize = 64 << 20

// streamObject issues one GET for the object body past the staged prefix
// and stages it piece by piece. retry marks failures (network errors, a
// broken stream, 5xx) worth resuming from the new staged length.
func (c *Client) streamObject(st *pullStage, u, have string, stats *TransferStats) (kind string, current, retry bool, err error) {
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		return "", false, false, err
	}
	if have != "" {
		req.Header.Set("If-None-Match", `"`+have+`"`)
	}
	if len(st.buf) > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(st.buf)))
		req.Header.Set("If-Range", `"`+st.object+`"`)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", false, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return "", true, false, nil
	}
	kind = resp.Header.Get(KindHeader)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent, http.StatusRequestedRangeNotSatisfiable:
		if kind == "" {
			return "", false, false, fmt.Errorf("%w: GET %s: response names no entry kind", ErrRemote, u)
		}
	}
	var total int64
	switch resp.StatusCode {
	case http.StatusOK:
		// A first request, or one whose Range was ignored or whose If-Range
		// named an object the key no longer maps to: take the body whole.
		id := strings.Trim(resp.Header.Get("ETag"), `"`)
		if !store.ValidObjectID(id) {
			return "", false, false, fmt.Errorf("%w: registry sent invalid object id %q", store.ErrCorrupt, id)
		}
		if resp.ContentLength < 0 {
			return "", false, false, fmt.Errorf("%w: GET %s: body length not announced", ErrRemote, u)
		}
		if err := st.restart(id); err != nil {
			return "", false, false, err
		}
		total = resp.ContentLength
	case http.StatusPartialContent:
		var first, last int64
		if _, err := fmt.Sscanf(resp.Header.Get("Content-Range"), "bytes %d-%d/%d", &first, &last, &total); err != nil ||
			first != int64(len(st.buf)) || last != total-1 || resp.Header.Get("ETag") != `"`+st.object+`"` {
			return "", false, false, fmt.Errorf("%w: object %.12s: asked for bytes %d- of the staged object, got range %q of %s",
				store.ErrCorrupt, st.object, len(st.buf), resp.Header.Get("Content-Range"), resp.Header.Get("ETag"))
		}
	case http.StatusRequestedRangeNotSatisfiable:
		// If-Range matched, so the staged object is current; a range past
		// its end means the whole body is already staged.
		var size int64
		if _, err := fmt.Sscanf(resp.Header.Get("Content-Range"), "bytes */%d", &size); err == nil && size == int64(len(st.buf)) {
			return kind, false, false, nil
		}
		err := fmt.Errorf("GET %s: staged prefix of %.12s does not fit the object", u, st.object)
		st.discard()
		st.object, st.buf = "", nil
		return "", false, true, err
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if retry, err := statusErr("GET", u, resp, data); err != nil {
			return "", false, retry, err
		}
		return "", false, false, fmt.Errorf("%w: GET %s: unexpected %s", ErrRemote, u, resp.Status)
	}

	if n := min(total, maxPresize) - int64(len(st.buf)); n > 0 {
		st.buf = slices.Grow(st.buf, int(n))
	}
	wire := c.WireChunk
	if wire <= 0 {
		wire = DefaultWireChunk
	}
	for int64(len(st.buf)) < total {
		n := int(min(int64(wire), total-int64(len(st.buf))))
		st.buf = slices.Grow(st.buf, n)
		if _, err := io.ReadFull(resp.Body, st.buf[len(st.buf):len(st.buf)+n]); err != nil {
			return "", false, true, fmt.Errorf("GET %s: stream broke at byte %d: %w", u, len(st.buf), err)
		}
		if err := st.extend(n); err != nil {
			return "", false, false, err
		}
		stats.Received++
		stats.Bytes += int64(n)
		if err := c.bump(); err != nil {
			return "", false, false, err
		}
	}
	if n, _ := resp.Body.Read(make([]byte, 1)); n > 0 {
		return "", false, false, fmt.Errorf("%w: object %.12s arrived longer than its %d bytes",
			store.ErrCorrupt, st.object, total)
	}
	return kind, false, false, nil
}
