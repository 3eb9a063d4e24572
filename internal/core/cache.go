package core

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// flightCache is a keyed build-once cache with per-key singleflight: the
// first caller of a key starts build exactly once while concurrent callers
// of the same key wait on that build instead of duplicating it (the cache
// stampede two sweeps warming the same mezzanine used to hit). Distinct
// keys build in parallel — only the map access is serialized.
//
// Build results, including errors, are cached: every build here is a pure
// function of its key (deterministic synthesis, encode or decode), so a
// failure would fail identically on retry.
//
// Each cache self-reports into obs.Default under its name label:
// core_cache_hits / core_cache_misses (one per get), core_cache_bytes
// (successful builds, via size), and core_cache_detached_builds — builds
// whose triggering caller was canceled before the build landed, i.e. work
// the detach policy saved from being wasted.
type flightCache[K comparable, V any] struct {
	// name labels this cache's metrics; empty disables self-reporting.
	name string
	// size measures a built value's footprint for core_cache_bytes; every
	// named cache has one.
	size func(V) int64

	mu sync.Mutex
	m  map[K]*flightEntry[V]
}

type flightEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
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
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*flightEntry[V])
	}
	e := c.m[k]
	builder := e == nil
	if builder {
		e = &flightEntry[V]{done: make(chan struct{})}
		c.m[k] = e
		ent := e
		go func() {
			defer close(ent.done)
			ent.val, ent.err = build()
			if c.name != "" && ent.err == nil {
				obs.Default().Counter("core_cache_bytes", "cache", c.name).Add(c.size(ent.val))
			}
		}()
	}
	c.mu.Unlock()
	if c.name != "" {
		if builder {
			obs.Default().Counter("core_cache_misses", "cache", c.name).Inc()
		} else {
			obs.Default().Counter("core_cache_hits", "cache", c.name).Inc()
		}
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		if builder && c.name != "" {
			obs.Default().Counter("core_cache_detached_builds", "cache", c.name).Inc()
		}
		var zero V
		return zero, ctx.Err()
	}
}
