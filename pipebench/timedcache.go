package main

import (
	"sync"

	"elfie/internal/store"
)

// timedCache decorates the store.Cache handed to pinpoints.Prepare with a
// span around every call, so store work done inside Prepare's farm jobs is
// measured without touching the pipeline. Puts are noted with their kind:
// "region" puts run inside the farm's lint stage, "profile" puts inside
// the profile stage.
type timedCache struct {
	inner  store.Cache
	tr     *tracer
	parent int

	mu         sync.Mutex
	gets, hits int
	putBytes   int64
}

var _ store.Cache = (*timedCache)(nil)

func (c *timedCache) Root() string { return c.inner.Root() }

// setParent parents the spans of later calls: Prepare's span while it
// runs, validation's after, where alternates are built and stored.
func (c *timedCache) setParent(id int) {
	c.mu.Lock()
	c.parent = id
	c.mu.Unlock()
}

func (c *timedCache) begin(name string) int {
	c.mu.Lock()
	parent := c.parent
	c.mu.Unlock()
	return c.tr.begin(name, parent)
}

func (c *timedCache) Get(key string) (store.FileSet, *store.Entry, bool, error) {
	id := c.begin("store.get")
	files, e, ok, err := c.inner.Get(key)
	c.tr.end(id)
	c.mu.Lock()
	c.gets++
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return files, e, ok, err
}

func (c *timedCache) Put(key, kind string, files store.FileSet) (*store.Entry, error) {
	return c.put(kind, files, func() (*store.Entry, error) { return c.inner.Put(key, kind, files) })
}

func (c *timedCache) PutChunked(key, kind string, files store.FileSet, chunkSize int) (*store.Entry, error) {
	return c.put(kind, files, func() (*store.Entry, error) {
		return c.inner.PutChunked(key, kind, files, chunkSize)
	})
}

func (c *timedCache) put(kind string, files store.FileSet, fn func() (*store.Entry, error)) (*store.Entry, error) {
	id := c.begin("store.put")
	c.tr.setNote(id, kind)
	e, err := fn()
	c.tr.end(id)
	var n int64
	for _, data := range files {
		n += int64(len(data))
	}
	c.mu.Lock()
	c.putBytes += n
	c.mu.Unlock()
	return e, err
}
