package server

import (
	"container/list"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/store"
)

// ResultCache is a fixed-capacity LRU of completed RunResults keyed by
// the canonical spec hash. Safe for concurrent use. It backs the
// per-daemon result cache and the cluster coordinator's shared cache:
// because the key is the spec's canonical hash, every node that caches
// a result for a key holds an interchangeable value.
type ResultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	res RunResult
}

// NewResultCache returns an empty cache holding at most capacity
// entries (minimum 1).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &ResultCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached result for key, refreshing its recency.
func (c *ResultCache) Get(key string) (RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return RunResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting the least recently used entry when
// over capacity.
func (c *ResultCache) Put(key string, res RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Lookup answers key from the cache, then from wh (which retains every
// finished run beyond the cache's capacity; nil means no warehouse),
// promoting warehouse hits back into the cache.
func (c *ResultCache) Lookup(key string, wh *store.Warehouse) (RunResult, bool) {
	if res, ok := c.Get(key); ok {
		return res, true
	}
	if wh == nil {
		return RunResult{}, false
	}
	rec, ok := wh.Get(key)
	if !ok {
		return RunResult{}, false
	}
	var res RunResult
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		return RunResult{}, false
	}
	c.Put(key, res)
	return res, true
}

// Archive retains res in wh beyond the cache. rec carries the run's
// identity (spec hash, tenant, predictor label, trace, and the spec's
// workload name); Archive fills in the payload and the time, and for
// SMT runs the mix label ("a+b") and context count.
func Archive(wh *store.Warehouse, rec store.RunRecord, res *RunResult) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if res.Workload != "" {
		rec.Workload = res.Workload
	}
	rec.Time = time.Now().UTC()
	rec.Result = raw
	rec.Contexts = res.Contexts
	return wh.Put(rec)
}
