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
	// Sent/Received count blob payloads that actually moved.
	Sent, Received int
	// Skipped counts blobs negotiation proved the far side already had.
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
	top, e, ok, err := s.GetRaw(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: no local entry %s", ErrNotFound, key)
	}
	stats := &TransferStats{}

	// Warm path: the registry already has this exact object under this key.
	if info, err := c.Stat(key, ""); err == nil && info.Entry.Object == e.Object {
		return stats, nil
	} else if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
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
// representation, resuming any prior interrupted download: completed
// chunks are never re-fetched (they are already local objects), and a
// partially-downloaded top member continues from its last staged piece via
// an HTTP Range request. A local entry already holding the registry's
// object transfers zero bytes.
func (c *Client) Pull(s *store.Store, key string) (*store.Entry, *TransferStats, error) {
	stats := &TransferStats{}
	var have string
	if local, ok := s.Stat(key); ok {
		have = local.Object
	}
	info, err := c.Stat(key, have)
	if err != nil {
		return nil, nil, err
	}
	if info == nil { // 304: local copy is current
		local, _ := s.Stat(key)
		return local, stats, nil
	}
	// The manifest is server-supplied and its names become client-side
	// filesystem paths below — a malicious or compromised registry must
	// not be able to smuggle a traversal like "../../x" into the stage
	// (the server applies the same gates on its side of every transfer).
	for name, size := range info.Top {
		if name == "" || name != filepath.Base(name) {
			return nil, stats, fmt.Errorf("%w: registry sent unsafe member name %q",
				store.ErrCorrupt, name)
		}
		if size < 0 {
			return nil, stats, fmt.Errorf("%w: registry sent member %s with size %d",
				store.ErrCorrupt, name, size)
		}
	}
	for _, ref := range info.Chunks {
		if !store.ValidObjectID(ref.ID) {
			return nil, stats, fmt.Errorf("%w: registry sent invalid chunk id %q",
				store.ErrCorrupt, ref.ID)
		}
	}

	// Durable stage: a pull killed at any instant resumes from what this
	// directory already holds.
	stage := filepath.Join(s.Root(), "xfer", "pull-"+uploadID(c.tenant(), key, info.Entry.Object))
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return nil, nil, err
	}

	top := make(store.FileSet, len(info.Top))
	for name, size := range info.Top {
		data, err := c.fetchMember(stage, key, name, size, stats)
		if err != nil {
			return nil, stats, err
		}
		top[name] = data
	}
	if got := store.ObjectID(top); got != info.Entry.Object {
		// Stale stage from an artifact that changed server-side mid-pull;
		// self-heal by wiping and refusing (the caller's retry starts clean).
		os.RemoveAll(stage)
		return nil, stats, fmt.Errorf("%w: pulled object hashes to %.12s, registry declared %.12s",
			store.ErrCorrupt, got, info.Entry.Object)
	}

	chunks := make(map[string][]byte)
	for _, ref := range info.Chunks {
		if s.HasObject(ref.ID) {
			stats.Skipped++
			continue // incremental pull: shared pages already local
		}
		cpath := filepath.Join(stage, "c-"+ref.ID)
		if data, err := os.ReadFile(cpath); err == nil &&
			store.ObjectID(store.FileSet{"chunk": data}) == ref.ID {
			chunks[ref.ID] = data // staged by the interrupted pull
			stats.Skipped++
			continue
		}
		_, data, err := c.do("GET", c.turl("objects", ref.ID), nil, nil)
		if err != nil {
			return nil, stats, err
		}
		if store.ObjectID(store.FileSet{"chunk": data}) != ref.ID {
			return nil, stats, fmt.Errorf("%w: chunk %.12s arrived damaged", store.ErrCorrupt, ref.ID)
		}
		if err := atomicWrite(cpath, data); err != nil {
			return nil, stats, err
		}
		chunks[ref.ID] = data
		stats.Received++
		stats.Bytes += int64(len(data))
		if err := c.bump(); err != nil {
			return nil, stats, err
		}
	}

	e, err := s.PutAssembled(key, info.Entry.Kind, top, chunks)
	if err != nil {
		return nil, stats, err
	}
	os.RemoveAll(stage)
	return e, stats, nil
}

// fetchMember downloads one top member with a single streamed Range GET
// from the staged length to the end. The body is consumed in wire-chunk
// pieces, each appended to a durable staged file and fsynced before the
// next is read: the wire chunk is the unit of durability, accounting and
// crash points, while the request count stays one per member. A stream
// that breaks or answers 5xx is retried under the backoff policy with a
// fresh Range from the fsynced length, so pieces staged by an earlier
// interrupted pull never re-cross the network.
func (c *Client) fetchMember(stage, key, name string, size int64, stats *TransferStats) ([]byte, error) {
	path := filepath.Join(stage, "m-"+name)
	staged, _ := os.ReadFile(path)
	if int64(len(staged)) == size {
		if size > 0 {
			stats.Skipped++
		}
		return staged, nil
	}
	if int64(len(staged)) > size {
		staged = nil // stale stage from a different version; start over
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	} else if len(staged) > 0 {
		stats.Skipped++ // partial progress an interrupted pull left behind
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := append(make([]byte, 0, min(size, maxPresize)), staged...)

	u := c.turl("artifacts", key, "files", name)
	var lastErr error
	for attempt := 1; attempt <= c.retries(); attempt++ {
		if attempt > 1 && c.Backoff != nil {
			time.Sleep(c.Backoff.Delay(u, attempt-1))
		}
		from := len(buf)
		var retry bool
		buf, retry, err = c.streamMember(f, u, name, size, buf, stats)
		if err == nil {
			return buf, nil
		}
		if !retry {
			return nil, err
		}
		lastErr = err
		if len(buf) > from {
			attempt = 0 // the stream made progress: fresh retry budget
		}
	}
	return nil, fmt.Errorf("registry: GET %s failed after %d attempts: %w", u, c.retries(), lastErr)
}

// maxPresize bounds how much of a member's manifest-declared size a pull
// reserves up front; a larger member grows as its bytes arrive, so a
// hostile manifest cannot make the client allocate ahead of the data.
const maxPresize = 64 << 20

// streamMember issues one GET for bytes len(buf)..size-1 of a member and
// stages the body piece by piece. It returns buf extended by every
// piece it durably staged, even on failure; retry marks failures (network
// errors, a broken stream, 5xx) worth resuming from the new length.
func (c *Client) streamMember(f *os.File, u, name string, size int64, buf []byte, stats *TransferStats) (_ []byte, retry bool, _ error) {
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		return buf, false, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", len(buf), size-1))
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return buf, true, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		var first, last, total int64
		if _, err := fmt.Sscanf(resp.Header.Get("Content-Range"), "bytes %d-%d/%d", &first, &last, &total); err != nil ||
			first != int64(len(buf)) || last != size-1 || total != size {
			return buf, false, fmt.Errorf("%w: member %s: asked for bytes %d-%d/%d, got range %q",
				store.ErrCorrupt, name, len(buf), size-1, size, resp.Header.Get("Content-Range"))
		}
	case http.StatusOK:
		// Server ignored the range and is sending everything: take it whole.
		if resp.ContentLength >= 0 && resp.ContentLength != size {
			return buf, false, fmt.Errorf("%w: member %s arrived %d bytes, manifest says %d",
				store.ErrCorrupt, name, resp.ContentLength, size)
		}
		if err := f.Truncate(0); err != nil {
			return buf, false, err
		}
		buf = buf[:0]
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if retry, err := statusErr("GET", u, resp, data); err != nil {
			return buf, retry, err
		}
		return buf, false, fmt.Errorf("%w: GET %s: unexpected %s", ErrRemote, u, resp.Status)
	}

	wire := c.WireChunk
	if wire <= 0 {
		wire = DefaultWireChunk
	}
	for int64(len(buf)) < size {
		n := int(min(int64(wire), size-int64(len(buf))))
		buf = slices.Grow(buf, n)
		piece := buf[len(buf) : len(buf)+n]
		if _, err := io.ReadFull(resp.Body, piece); err != nil {
			return buf, true, fmt.Errorf("GET %s: stream broke at byte %d: %w", u, len(buf), err)
		}
		if _, err := f.Write(piece); err != nil {
			return buf, false, err
		}
		if err := f.Sync(); err != nil {
			return buf, false, err
		}
		buf = buf[:len(buf)+n]
		stats.Received++
		stats.Bytes += int64(n)
		if err := c.bump(); err != nil {
			return buf, false, err
		}
	}
	if n, _ := resp.Body.Read(make([]byte, 1)); n > 0 {
		return buf, false, fmt.Errorf("%w: member %s arrived longer than the manifest's %d bytes",
			store.ErrCorrupt, name, size)
	}
	return buf, false, nil
}
