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
// it simulates the client process being SIGKILLed between completed pieces,
// the exact point a resumed transfer must pick up from.
var ErrCrashed = errors.New("registry: transfer crashed (simulated)")

// ErrRemote wraps a non-retryable registry rejection (4xx).
var ErrRemote = errors.New("registry: remote rejected request")

// errStageRefused marks an upload commit the registry refused (422) because
// the staged object did not parse or hash; the server has wiped the session.
var errStageRefused = errors.New("registry: staged object refused at commit")

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
	// WireChunk is the piece size of a streamed object transfer (default
	// DefaultWireChunk).
	WireChunk int
	// CrashAfter, when positive, makes the client return ErrCrashed after
	// that many piece/chunk transfers — the test hook for killing a
	// transfer between completed units.
	CrashAfter int

	// transferred counts completed piece/chunk payload transfers (uploads
	// and downloads), the currency of resume proofs: a resumed transfer's
	// count plus the crashed one's must equal a cold transfer's.
	transferred atomic.Int64
}

// TransferStats accounts one Push or Pull.
type TransferStats struct {
	// Sent/Received count payload units that actually moved: the object's
	// wire-chunk pieces and chunk objects, in either direction.
	Sent, Received int
	// Skipped counts units the far side already had (upload negotiation)
	// or the near side already held (local chunks, a staged prefix).
	Skipped int
	// Bytes is the payload volume that moved.
	Bytes int64
	// Resumed is the length of the object prefix an interrupted transfer
	// had staged on the receiving side, which this one did not move again.
	Resumed int64
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

func (c *Client) wire() int {
	if c.WireChunk > 0 {
		return c.WireChunk
	}
	return DefaultWireChunk
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

// retry runs one request step until it succeeds or fails for good: the
// one retry policy of every request. A failure the step marks retryable
// (a network error, a broken stream, 5xx) backs off under the farm policy
// and runs the step again; a step that made progress — moved bytes a
// resumed step need not move again — earns a fresh retry budget.
func (c *Client) retry(method, u string, step func() (retry, progress bool, err error)) error {
	var lastErr error
	for attempt := 1; attempt <= c.retries(); attempt++ {
		if attempt > 1 && c.Backoff != nil {
			time.Sleep(c.Backoff.Delay(u, attempt-1))
		}
		retry, progress, err := step()
		if err == nil || !retry {
			return err
		}
		lastErr = err
		if progress {
			attempt = 0
		}
	}
	return fmt.Errorf("registry: %s %s failed after %d attempts: %w",
		method, u, c.retries(), lastErr)
}

// do issues one request with retry: transient failures (network errors,
// 5xx) back off and retry; 4xx rejections and 404s fail immediately, with
// the response. body is re-sendable bytes (nil for none). The response
// body is fully read and returned.
func (c *Client) do(method, u string, hdr http.Header, body []byte) (resp *http.Response, data []byte, err error) {
	err = c.retry(method, u, func() (bool, bool, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, u, rd)
		if err != nil {
			return false, false, err
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		if resp, err = c.httpClient().Do(req); err != nil {
			return true, false, err
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return true, false, err
		}
		retry, err := statusErr(method, u, resp, data)
		return retry, false, err
	})
	return resp, data, err
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

// holds reports whether the registry maps key to exactly object. It asks
// with a HEAD of the artifact's object carrying If-None-Match, which the
// registry answers from its index: 304 when it holds object, 200 when it
// holds another. ErrNotFound when key is absent.
func (c *Client) holds(key, object string) (bool, error) {
	hdr := http.Header{"If-None-Match": {`"` + object + `"`}}
	resp, _, err := c.do("HEAD", c.turl("artifacts", key, "object"), hdr, nil)
	if err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusNotModified, nil
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
// stored representation, resuming any prior interrupted upload of the same
// content. The top object crosses as one streamed PUT of its canonical form
// (read and verified once here, hashed once by the server's commit),
// continuing from whatever prefix the server has staged; chunk objects
// travel whole, and those the registry already holds — shared with
// artifacts pushed before — are skipped, so a near-identical checkpoint
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
	if held, err := c.holds(key, e.Object); held {
		return stats, nil
	} else if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	body, err := s.ReadCanonical(e.Object)
	if err != nil {
		return nil, err
	}
	top, err := store.ParseCanonical(body)
	if err != nil {
		return nil, err
	}
	refs, err := store.ChunkRefsOf(top)
	if err != nil {
		return nil, err
	}
	man := UploadManifest{Key: key, Kind: e.Kind, Object: e.Object, Size: int64(len(body))}
	chunks := make(map[string][]byte)
	for _, id := range refs {
		if _, dup := chunks[id]; dup {
			continue
		}
		part, err := s.ReadObject(id)
		if err != nil {
			return nil, err
		}
		chunks[id] = part["chunk"]
		man.Chunks = append(man.Chunks, BlobRef{ID: id, Size: int64(len(part["chunk"]))})
	}
	// A stage that fails the commit's hash was torn: an OS crash under the
	// server lost some of its unsynced pages, before this push resumed it
	// or after this push sent it. The server wiped the session; send the
	// body whole, once more.
	err = c.upload(&man, body, chunks, stats)
	if errors.Is(err, errStageRefused) {
		err = c.upload(&man, body, chunks, stats)
	}
	return stats, err
}

// upload runs one upload session: open or reattach, stream the object past
// its staged prefix, send the chunks the server lacks, commit. A commit the
// server refuses as damaged (422) is reported as errStageRefused.
func (c *Client) upload(man *UploadManifest, body []byte, chunks map[string][]byte, stats *TransferStats) error {
	manBytes, err := json.Marshal(man)
	if err != nil {
		return err
	}
	_, data, err := c.do("POST", c.turl("uploads"), nil, manBytes)
	if err != nil {
		return err
	}
	var st UploadStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("registry: upload status: %v", err)
	}
	if st.Committed {
		return nil
	}
	if st.Staged > 0 {
		stats.Skipped++ // partial progress an interrupted push left staged
		stats.Resumed = st.Staged
	}
	if err := c.sendObject(st.ID, body, st.Staged, stats); err != nil {
		return err
	}
	stats.Skipped += len(chunks) - len(st.NeedChunks)
	// Ship only the missing chunks; each PUT is individually retried, and
	// the crash hook fires between completed units — exactly where a real
	// SIGKILL would leave a resumable boundary.
	for _, id := range st.NeedChunks {
		data, ok := chunks[id]
		if !ok {
			return fmt.Errorf("registry: server needs undeclared chunk %s", id)
		}
		if _, _, err := c.do("PUT", c.turl("uploads", st.ID, "blobs", id), nil, data); err != nil {
			return err
		}
		stats.Sent++
		stats.Bytes += int64(len(data))
		if err := c.bump(); err != nil {
			return err
		}
	}

	resp, data, err := c.do("POST", c.turl("uploads", st.ID, "commit"), nil, nil)
	if err != nil {
		if resp != nil && resp.StatusCode == http.StatusUnprocessableEntity {
			err = fmt.Errorf("%w: %w", errStageRefused, err)
		}
		return err
	}
	var committed store.Entry
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("registry: commit response: %v", err)
	}
	if committed.Object != man.Object {
		return fmt.Errorf("registry: committed object %.12s, pushed %.12s",
			committed.Object, man.Object)
	}
	return nil
}

// sendObject streams body past the server's staged prefix in one PUT. A
// PUT that breaks, answers 5xx, or finds the stage moved under it (409) is
// retried from the staged length the server then reports; bytes the
// failed PUT staged count as progress.
func (c *Client) sendObject(id string, body []byte, staged int64, stats *TransferStats) error {
	u := c.turl("uploads", id, "object")
	var broke error // the last PUT's failure; nil before the first PUT
	return c.retry("PUT", u, func() (retry, progress bool, err error) {
		if broke != nil {
			_, data, err := c.do("GET", c.turl("uploads", id), nil, nil)
			var st UploadStatus
			if err == nil {
				err = json.Unmarshal(data, &st)
			}
			if err != nil {
				return false, false, fmt.Errorf("registry: upload %s status after %v: %w", id, broke, err)
			}
			if progress = st.Staged > staged; progress {
				// The failed PUT staged a prefix of its range: it moved.
				if err := c.account(st.Staged-staged, stats); err != nil {
					return false, true, err
				}
			}
			staged = st.Staged
		}
		if staged > int64(len(body)) {
			return false, progress, fmt.Errorf("%w: upload %s: server staged %d bytes of a %d-byte object",
				ErrRemote, id, staged, len(body))
		}
		if staged == int64(len(body)) {
			return false, progress, nil
		}
		retry, broke = c.putObject(u, body, staged, stats)
		return retry, progress, broke
	})
}

// putObject sends body[from:] in one PUT whose Content-Range places it
// after the staged prefix. With the crash hook armed it sends only the
// pieces before the crash point, so the server stages exactly what a kill
// there would leave. The bytes a 2xx acknowledges are accounted one tick
// per wire-chunk piece. retry marks failures (network errors, 5xx, a stage
// that moved) worth resuming from the server's staged length.
func (c *Client) putObject(u string, body []byte, from int64, stats *TransferStats) (retry bool, err error) {
	wire := int64(c.wire())
	to := int64(len(body))
	if c.CrashAfter > 0 {
		left := max(int64(c.CrashAfter)-c.transferred.Load(), 1)
		to = min(to, from+left*wire)
	}
	req, err := http.NewRequest("PUT", u, bytes.NewReader(body[from:to]))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to-1, len(body)))
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return true, err
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return true, fmt.Errorf("PUT %s: %s: %s", u, resp.Status, remoteError(data))
	}
	if retry, err := statusErr("PUT", u, resp, data); err != nil {
		return retry, err
	}
	return false, c.account(to-from, stats)
}

// account books n bytes the server staged as sent wire-chunk pieces, one
// crash-hook tick each.
func (c *Client) account(n int64, stats *TransferStats) error {
	wire := int64(c.wire())
	var crashed error
	for ; n > 0; n -= min(n, wire) {
		stats.Sent++
		stats.Bytes += min(n, wire)
		if err := c.bump(); err != nil {
			crashed = err
		}
	}
	return crashed
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
	// The stage is a resumption hint: a pull killed at any instant resumes
	// from what this directory holds, and the commit's hash checks it.
	st := &pullStage{dir: filepath.Join(s.Root(), "xfer", "pull-"+uploadID(c.tenant(), key, ""))}
	defer st.close()
	// A resumed stage that fails the commit's hash was torn — an OS crash
	// lost some of its unsynced pages. Drop it and take the body whole,
	// once, instead of failing the pull (a pull-through cache would treat
	// the failure as a miss and rebuild the artifact locally). Any other
	// refused body is wiped, so the caller's retry starts clean.
	for fresh := false; ; fresh = true {
		e, top, resumed, err := c.pullOnce(s, st, key, have, stats)
		if !errors.Is(err, store.ErrCorrupt) {
			return e, top, stats, err
		}
		if !resumed || fresh {
			st.discard()
			return nil, nil, stats, err
		}
		if err := st.drop(); err != nil {
			return nil, nil, stats, err
		}
	}
}

// pullOnce fetches key's object into the stage and commits it. resumed
// reports that the stage held a prefix of the body before this call.
func (c *Client) pullOnce(s *store.Store, st *pullStage, key, have string, stats *TransferStats) (e *store.Entry, top store.FileSet, resumed bool, err error) {
	kind, current, resumed, err := c.fetchObject(st, key, have, stats)
	if err != nil {
		return nil, nil, resumed, err
	}
	if current { // 304: the local copy is the registry's object
		st.discard()
		local, _ := s.Stat(key)
		return local, nil, false, nil
	}
	// The body is server-supplied: its member names and chunk IDs are
	// checked before they name anything on disk.
	top, err = store.ParseCanonical(st.buf)
	var refs []string
	if err == nil {
		refs, err = store.ChunkRefsOf(top)
	}
	if err != nil {
		return nil, nil, resumed, err
	}
	chunks, err := c.fetchChunks(s, st.dir, refs, stats)
	if err != nil {
		return nil, nil, resumed, err
	}
	// The commit hashes the top once and refuses it unless it is the object
	// the ETag named.
	if e, err = s.PutAssembled(key, kind, st.object, top, chunks); err != nil {
		return nil, nil, resumed, err
	}
	st.discard()
	return e, top, resumed, nil
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
		if err := store.WriteFileAtomic(cpath, data); err != nil {
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

// pullStage is the resumable state of one top-object download: a prefix of
// the object's canonical form, appended piece by piece to <dir>/o-<object>
// without fsync. A killed process leaves the appended pieces in the page
// cache; an OS crash can tear them, which the commit's hash catches.
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

// extend stages the n bytes just read past the end of buf: they are
// written to the stage file before they count as staged.
func (st *pullStage) extend(n int) error {
	if _, err := st.f.Write(st.buf[len(st.buf) : len(st.buf)+n]); err != nil {
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

// drop forgets the staged body, leaving nothing for the next fetch to
// resume from. Staged chunks stay: each is re-hashed before it is reused.
func (st *pullStage) drop() error {
	st.close()
	if st.object != "" {
		if err := os.Remove(st.path()); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	st.object, st.buf = "", nil
	return nil
}

// fetchObject fills the stage with key's top object in canonical form. It
// reports current=true, staging nothing, when the registry's object is
// have, and resumed=true when an interrupted pull had left a prefix staged.
// The body is consumed in wire-chunk pieces, each appended to the stage
// before the next is read: the wire chunk is the unit of staging,
// accounting and crash points, while the request count stays one per
// object. A stream that breaks or answers 5xx is retried under the backoff
// policy with a fresh Range from the staged length; a stream that made
// progress gets a fresh retry budget.
func (c *Client) fetchObject(st *pullStage, key, have string, stats *TransferStats) (kind string, current, resumed bool, err error) {
	if err := st.load(); err != nil {
		return "", false, false, err
	}
	if resumed = len(st.buf) > 0; resumed {
		stats.Skipped++ // partial progress an interrupted pull left behind
		stats.Resumed = int64(len(st.buf))
	}
	u := c.turl("artifacts", key, "object")
	err = c.retry("GET", u, func() (retry, progress bool, err error) {
		pieces := stats.Received
		kind, current, retry, err = c.streamObject(st, u, have, stats)
		return retry, stats.Received > pieces, err
	})
	if err != nil {
		return "", false, resumed, err
	}
	return kind, current, resumed, nil
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
	wire := c.wire()
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
