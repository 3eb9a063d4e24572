package core

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// budget is the one eviction policy of an Engine: a byte-budgeted LRU over
// the built entries of every layer that points at it. An entry joins the
// recency list when its build lands (an in-flight build is never a victim),
// every hit moves it to the front, and a landing that takes resident past
// limit evicts from the tail — never the entry that just landed, so
// residency tops limit by at most the one entry being added. Eviction only
// unlinks the map entry: waiters and running jobs keep the value they hold
// (everything cached is immutable), and the next get of the key rebuilds it
// through the same singleflight path, bit-identically.
type budget struct {
	mu       sync.Mutex // guards the list and the map of every layer sharing the budget
	limit    int64
	resident int64
	order    list.List // of *resident, most recently used first
}

// resident is a landed entry as the budget sees it.
type resident struct {
	size int64
	drop func() // unlinks the entry from its layer's map; b.mu held
}

// evict unlinks one listed entry; b.mu held.
func (b *budget) evict(el *list.Element) {
	r := b.order.Remove(el).(*resident)
	b.resident -= r.size
	r.drop()
}

// failedEntryBytes is what a cached error is charged, so that failures age
// out like values instead of being the one thing that grows without bound.
const failedEntryBytes = 256

// flightCache is a keyed build-once cache with per-key singleflight: the
// first caller of a key starts build exactly once while concurrent callers
// of the same key wait on that build instead of duplicating it (the cache
// stampede two sweeps warming the same mezzanine used to hit). Distinct
// keys build in parallel — only the map access is serialized.
//
// Build results, including errors, are cached: every build here is a pure
// function of its key (deterministic synthesis, encode or decode), so a
// failure fails identically on retry — whether the retry hits the cached
// error or, after it aged out, rebuilds it.
//
// Each cache self-reports into obs.Default under its name label, resolving
// the counter by name per event (callers Reset the registry mid-process):
// core_cache_hits / core_cache_misses (one per get), core_cache_bytes
// (resident bytes by size: up when a build lands, down when it is evicted),
// core_cache_evictions, and core_cache_detached_builds — builds whose
// triggering caller was canceled before the build landed, i.e. work the
// detach policy saved from being wasted.
type flightCache[K comparable, V any] struct {
	name string        // labels this cache's metrics
	size func(V) int64 // a built value's footprint
	lru  *budget       // the engine's shared budget; lru.mu guards m
	m    map[K]*flightEntry[V]
}

type flightEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
	elem *list.Element // place in lru.order once landed
}

func (c *flightCache[K, V]) count(metric string, n int64) {
	obs.Default().Counter(metric, "cache", c.name).Add(n)
}

// get returns the cached value for k, building it with build on first use.
//
// The build runs in its own goroutine, detached from ctx: a canceled
// waiter — including the caller that triggered the build — returns
// ctx.Err() immediately while the build runs to completion and lands in
// the cache. Cancellation therefore can never poison an entry: the next
// caller of the key gets the real value, not a stale context error. Builds
// are bounded CPU work (one encode or decode), so letting an abandoned
// build finish costs at most one job's worth of compute.
func (c *flightCache[K, V]) get(ctx context.Context, k K, build func() (V, error)) (V, error) {
	c.lru.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*flightEntry[V])
	}
	e := c.m[k]
	builder := e == nil
	if builder {
		e = &flightEntry[V]{done: make(chan struct{})}
		c.m[k] = e
		go func() {
			defer close(e.done)
			e.val, e.err = build()
			c.land(k, e)
		}()
	} else if e.elem != nil {
		c.lru.order.MoveToFront(e.elem)
	}
	c.lru.mu.Unlock()
	if builder {
		c.count("core_cache_misses", 1)
	} else {
		c.count("core_cache_hits", 1)
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		if builder {
			c.count("core_cache_detached_builds", 1)
		}
		var zero V
		return zero, ctx.Err()
	}
}

// landed returns the values of the built, resident entries whose key
// matches, read under the budget lock. A build still in flight is not
// listed.
func (c *flightCache[K, V]) landed(match func(K) bool) []V {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	var out []V
	for k, e := range c.m {
		if e.elem != nil && e.err == nil && match(k) {
			out = append(out, e.val)
		}
	}
	return out
}

// land charges a finished build to the budget and evicts down to it.
func (c *flightCache[K, V]) land(k K, e *flightEntry[V]) {
	b := c.lru
	size := int64(failedEntryBytes)
	if e.err == nil {
		size = c.size(e.val)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e.elem = b.order.PushFront(&resident{size: size, drop: func() {
		delete(c.m, k)
		c.count("core_cache_bytes", -size)
		c.count("core_cache_evictions", 1)
	}})
	b.resident += size
	c.count("core_cache_bytes", size)
	for b.resident > b.limit && b.order.Back() != e.elem {
		b.evict(b.order.Back())
	}
}
