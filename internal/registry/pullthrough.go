package registry

import (
	"errors"
	"sync/atomic"

	"elfie/internal/store"
)

// PullThrough is a store.Cache whose misses fall through to a remote
// registry: Get serves from the local store when it can, otherwise pulls
// the artifact down (in its stored representation, so content addresses
// match the origin) and serves the local copy. This is how a farm on one
// machine feeds validation runs on another — `pinpoints -store … -remote
// http://…` and the artifacts just appear.
//
// Writes land locally; with PushOnPut they are also pushed upstream, so
// the producing side of the pipeline can populate the registry as it goes.
type PullThrough struct {
	Local  *store.Store
	Remote *Client
	// PushOnPut mirrors every Put/PutChunked to the registry. A push
	// failure fails the Put: a producer configured to publish must not
	// silently produce private artifacts.
	PushOnPut bool

	// Counters for observability and tests.
	hits, misses, fills atomic.Int64
}

var _ store.Cache = (*PullThrough)(nil)

// NewPullThrough wires a local store to a remote registry.
func NewPullThrough(local *store.Store, remote *Client) *PullThrough {
	return &PullThrough{Local: local, Remote: remote}
}

// Root returns the local store's root (staging lives with the local
// side).
func (p *PullThrough) Root() string { return p.Local.Root() }

// Hits/Misses/Fills report Get outcomes: served locally, absent everywhere,
// and filled from the remote, respectively.
func (p *PullThrough) Hits() int64   { return p.hits.Load() }
func (p *PullThrough) Misses() int64 { return p.misses.Load() }
func (p *PullThrough) Fills() int64  { return p.fills.Load() }

// Get serves key from the local store, falling through to the registry on
// a miss. A filled artifact is served from the files the pull just
// verified, not read back from disk. A key absent on both sides is a plain
// miss; a registry that cannot be reached surfaces its error (callers treat
// cache errors as misses and rebuild, so a dead registry degrades to
// local-only work).
func (p *PullThrough) Get(key string) (store.FileSet, *store.Entry, bool, error) {
	files, e, ok, err := p.Local.Get(key)
	if err != nil || ok {
		if ok {
			p.hits.Add(1)
		}
		return files, e, ok, err
	}
	e, top, _, err := p.Remote.pull(p.Local, key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			p.misses.Add(1)
			return nil, nil, false, nil
		}
		return nil, nil, false, err
	}
	p.fills.Add(1)
	if top == nil { // filled concurrently: the local copy is current
		return p.Local.Get(key)
	}
	if files, err = p.Local.Resolve(top); err != nil {
		return nil, nil, false, err
	}
	return files, e, true, nil
}

// Put stores locally and, with PushOnPut, publishes upstream.
func (p *PullThrough) Put(key, kind string, files store.FileSet) (*store.Entry, error) {
	e, err := p.Local.Put(key, kind, files)
	if err != nil {
		return nil, err
	}
	return e, p.maybePush(key)
}

// PutChunked stores locally and, with PushOnPut, publishes upstream.
func (p *PullThrough) PutChunked(key, kind string, files store.FileSet, chunkSize int) (*store.Entry, error) {
	e, err := p.Local.PutChunked(key, kind, files, chunkSize)
	if err != nil {
		return nil, err
	}
	return e, p.maybePush(key)
}

func (p *PullThrough) maybePush(key string) error {
	if !p.PushOnPut {
		return nil
	}
	_, err := p.Remote.Push(p.Local, key)
	return err
}
