package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/uarch"
)

// engineLayer is one of an engine's seven caches with its key and value
// types erased, so tests can walk the pipeline as a table.
type engineLayer struct {
	name string
	// held sums the charged sizes of the landed entries still in the map.
	held func() int64
	// evict drops every landed entry and returns how many there were.
	evict func() int
}

func eraseLayer[K comparable, V any](c *flightCache[K, V]) engineLayer {
	return engineLayer{
		name: c.name,
		held: func() (n int64) {
			c.lru.mu.Lock()
			defer c.lru.mu.Unlock()
			for _, e := range c.m {
				if e.elem != nil {
					n += e.elem.Value.(*resident).size
				}
			}
			return n
		},
		evict: func() (n int) {
			c.lru.mu.Lock()
			defer c.lru.mu.Unlock()
			for _, e := range c.m {
				if e.elem != nil {
					c.lru.evict(e.elem)
					n++
				}
			}
			return n
		},
	}
}

// layersOf lists an engine's caches in pipeline order.
func layersOf(e *Engine) []engineLayer {
	return []engineLayer{
		eraseLayer(&e.mezz), eraseLayer(&e.dec), eraseLayer(&e.parsed), eraseLayer(&e.snap),
		eraseLayer(&e.ana), eraseLayer(&e.anaParsed), eraseLayer(&e.anaSnap),
	}
}

// residentOf reads an engine's own account of what it holds.
func residentOf(e *Engine) (bytes int64, entries int) {
	e.lru.mu.Lock()
	defer e.lru.mu.Unlock()
	return e.lru.resident, e.lru.order.Len()
}

// cacheCounters reads one per-layer core_cache_* counter family. The
// registry is process-wide and every engine reports under the same layer
// names, so tests on a private engine compare deltas.
func cacheCounters(metric string, layers []engineLayer) map[string]int64 {
	snap, out := obs.Default().Snapshot(), make(map[string]int64)
	for _, l := range layers {
		out[l.name] = snap.Counters[obs.Key(metric, "cache", l.name)]
	}
	return out
}

func requireSameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("%s: report differs:\ngot:  %+v\nwant: %+v", what, got.Report, want.Report)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: codec stats differ", what)
	}
	if !bytes.Equal(got.Stream, want.Stream) {
		t.Fatalf("%s: bitstream differs (%d vs %d bytes)", what, len(got.Stream), len(want.Stream))
	}
}

// TestEvictedLayerRebuildsBitIdentical is the fidelity guarantee of
// eviction: whatever subset of a title's seven entries has been dropped,
// the next Run rebuilds what it needs through the singleflight path and
// returns the same report, stats and bitstream as the first run and as the
// cache-free reference. The single-layer cases are the partial states no
// whole-title eviction reaches — e.g. the old analysis artifact, with the
// addresses it recorded, over freshly re-decoded frames.
func TestEvictedLayerRebuildsBitIdentical(t *testing.T) {
	eng := NewEngine(DefaultCacheBudget)
	job := Job{Workload: Workload{Video: "cricket", Frames: 6, Scale: 16, Seed: 0xE71C7}, Options: codec.Defaults(), Config: uarch.Baseline()}
	first, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "first run against the reference transcode", first, referenceTranscode(t, job))

	layers := layersOf(eng)
	rerun := func(what string, drop func(i int) bool) {
		t.Helper()
		for i, l := range layers {
			if drop(i) && l.evict() != 1 {
				t.Fatalf("%s: layer %s did not hold exactly the title's one entry", what, l.name)
			}
		}
		again, err := eng.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireSameResult(t, what, again, first)
		// Refill the layers that run was shielded from by a hit above them,
		// so every case starts from a fully cached title.
		ctx, w, dopt := context.Background(), job.Workload, decoderOptions(job.Options)
		_, err = eng.Mezzanine(ctx, w)
		if err == nil {
			_, err = eng.decodedMachine(ctx, w, dopt, job.Config)
		}
		if err == nil {
			_, err = eng.ParsedDecodeTrace(ctx, w, dopt)
		}
		var a *codec.Analysis
		if err == nil {
			a, err = eng.sharedAnalysis(ctx, w, dopt, job.Options, job.Segment)
		}
		if err == nil {
			_, err = eng.parsedAnalysisTrace(ctx, w, dopt, a)
		}
		if err != nil {
			t.Fatalf("%s: refill: %v", what, err)
		}
	}
	for i, l := range layers {
		rerun("after evicting "+l.name, func(j int) bool { return j == i })
		rerun("after evicting all but "+l.name, func(j int) bool { return j != i })
	}
	rerun("after evicting every layer", func(int) bool { return true })

	if got, n := residentOf(eng); n != len(layers) || got <= 0 {
		t.Fatalf("engine ends holding %d entries (%d B), want the title's %d", n, got, len(layers))
	}
}

// soakJob transcodes the i-th title of the soak catalog: small, and
// distinct content per index.
func soakJob(i int) Job {
	w := Workload{Video: "cricket", Frames: 4, Scale: 16, Seed: 0x50A4 + uint64(i)}
	return Job{Workload: w, Options: codec.Defaults(), Config: uarch.Baseline()}
}

// requireWithinBudget: a landing evicts down to the budget unless the
// entry that just landed is alone in the list.
func requireWithinBudget(t *testing.T, what string, e *Engine) {
	t.Helper()
	if got, n := residentOf(e); got > e.lru.limit && n > 1 {
		t.Fatalf("%s: %d B resident in %d entries, budget %d", what, got, n, e.lru.limit)
	}
}

// TestEngineSoakHoldsBudget cycles a catalog several times the budget
// through a private engine: residency stays within the budget after every
// run, the heap stops growing once the budget is full, and the three
// accounts of what is held — the core_cache_bytes counters, the budget's
// resident count, and the entries still in the layers' maps — agree.
func TestEngineSoakHoldsBudget(t *testing.T) {
	ctx := context.Background()
	// One title's footprint sizes the budget: room for three, catalog of twelve.
	const catalog = 12
	probe := NewEngine(DefaultCacheBudget)
	if _, err := probe.Run(ctx, soakJob(0)); err != nil {
		t.Fatal(err)
	}
	title, _ := residentOf(probe)
	budgetBytes := 3*title + title/2

	eng := NewEngine(budgetBytes)
	layers := layersOf(eng)
	bytesBefore := cacheCounters("core_cache_bytes", layers)
	evictionsBefore := cacheCounters("core_cache_evictions", layers)
	missesBefore := cacheCounters("core_cache_misses", layers)
	var reports [catalog]*Result
	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heapBefore := heapAfterGC()
	var heap [3]uint64
	for pass := range heap {
		for i := 0; i < catalog; i++ {
			what := fmt.Sprintf("pass %d title %d", pass, i)
			res, err := eng.Run(ctx, soakJob(i))
			if err != nil {
				t.Fatal(err)
			}
			if reports[i] == nil {
				reports[i] = res
			}
			requireSameResult(t, what+" against its first run", res, reports[i])
			requireWithinBudget(t, what, eng)
		}
		heap[pass] = heapAfterGC()
	}
	if lo, hi := float64(heap[1])*0.9, float64(heap[1])*1.1; float64(heap[2]) < lo || float64(heap[2]) > hi {
		t.Errorf("heap still moving under a full budget: %d B after pass two, %d B after pass three", heap[1], heap[2])
	}
	// Flat is not enough (a cache that kept all twelve titles would be flat
	// too): what the soak added to the heap must be the budget, not the catalog.
	if grown := int64(heap[2]) - int64(heapBefore); grown > budgetBytes*3/2 {
		t.Errorf("heap grew %d B over the soak, budget %d B, catalog about %d B", grown, budgetBytes, catalog*title)
	}

	got, _ := residentOf(eng)
	bytesAfter := cacheCounters("core_cache_bytes", layers)
	evictionsAfter := cacheCounters("core_cache_evictions", layers)
	missesAfter := cacheCounters("core_cache_misses", layers)
	var counted, held, evictions int64
	for _, l := range layers {
		// Plain LRU is enough as long as no run rebuilds a layer twice —
		// the cascade a per-layer priority would be there to prevent.
		if m, runs := missesAfter[l.name]-missesBefore[l.name], int64(len(heap)*catalog); m > runs {
			t.Errorf("layer %s was built %d times in %d runs: a run evicted what it was about to need", l.name, m, runs)
		}
		delta := bytesAfter[l.name] - bytesBefore[l.name]
		if h := l.held(); delta != h {
			t.Errorf("core_cache_bytes{cache=%s} moved by %d B, the layer's map holds %d B", l.name, delta, h)
		}
		counted += delta
		held += l.held()
		evictions += evictionsAfter[l.name] - evictionsBefore[l.name]
	}
	if counted != got || held != got {
		t.Errorf("three accounts of residency disagree: counters %d B, budget %d B, maps %d B", counted, got, held)
	}
	if got < budgetBytes/2 || evictions == 0 {
		t.Errorf("soak never filled the budget: %d of %d B resident, %d evictions", got, budgetBytes, evictions)
	}
	t.Logf("title %d B, budget %d B, resident %d B, %d evictions, heap %d then %v", title, budgetBytes, got, evictions, heapBefore, heap)
}

// TestSweepOverBudgetBuildsEachTitleOnce runs one sweep over a catalog
// twice what the budget holds, one point per title as SweepVideosWith
// plans it. The pool's workers build their titles side by side under
// the budget, and no layer of any title is built twice: a sweep needs no
// pass that builds its titles ahead of the points.
func TestSweepOverBudgetBuildsEachTitleOnce(t *testing.T) {
	ctx := context.Background()
	probe := NewEngine(DefaultCacheBudget)
	if _, err := probe.Run(ctx, soakJob(0)); err != nil {
		t.Fatal(err)
	}
	title, _ := residentOf(probe)
	// Room for every worker's title and two more; the catalog is twice that.
	room := runtime.GOMAXPROCS(0) + 2
	catalog := 2 * room
	eng := NewEngine(int64(room)*title + title/2)
	layers := layersOf(eng)
	missesBefore := cacheCounters("core_cache_misses", layers)

	pts := eng.Sweep(ctx, Plan{
		N: catalog,
		Build: func(i int) (Job, Point, error) {
			job := soakJob(i)
			return job, Point{Video: job.Workload.Video, CRF: job.Options.CRF, Refs: job.Options.Refs}, nil
		},
	})
	if len(pts) != catalog {
		t.Fatalf("%d points for %d titles", len(pts), catalog)
	}
	if err := pts.FirstErr(); err != nil {
		t.Fatal(err)
	}
	requireWithinBudget(t, "after the sweep", eng)
	missesAfter := cacheCounters("core_cache_misses", layers)
	for _, l := range layers {
		if m := missesAfter[l.name] - missesBefore[l.name]; m != int64(catalog) {
			t.Errorf("layer %s was built %d times for %d titles", l.name, m, catalog)
		}
	}
	got, _ := residentOf(eng)
	t.Logf("%d titles of %d B, budget %d B, resident %d B", catalog, title, eng.lru.limit, got)
}

// TestEngineConcurrentRunsOverBudget runs a catalog larger than the budget
// from several goroutines at once, each in its own order: every run of a
// title must report identically no matter which of its entries had been
// evicted, were being rebuilt, or were evicted under a waiter's feet.
func TestEngineConcurrentRunsOverBudget(t *testing.T) {
	ctx := context.Background()
	probe := NewEngine(DefaultCacheBudget)
	const catalog, runners = 5, 4
	var want [catalog]*Result
	for i := range want {
		var err error
		if want[i], err = probe.Run(ctx, soakJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	all, _ := residentOf(probe)
	eng := NewEngine(all / catalog * 2) // room for two titles
	var wg sync.WaitGroup
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2*catalog; n++ {
				i := (n*(g+1) + g) % catalog
				res, err := eng.Run(ctx, soakJob(i))
				if err != nil {
					t.Errorf("runner %d title %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(res.Report, want[i].Report) || !reflect.DeepEqual(res.Stats, want[i].Stats) {
					t.Errorf("runner %d title %d: report differs from the uncontended run", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	requireWithinBudget(t, "after the last runner", eng)
}

// TestFlightCacheBudgetStress hammers one budgeted cache whose budget holds
// a fraction of its keys, so entries are evicted as fast as they land:
// a key is never being built twice at once (in-flight entries are not
// victims), every caller — including a waiter whose entry was evicted
// between its lookup and its wake-up — gets the value of the key it asked
// for, builds whose caller was canceled still land, and once quiet the
// budget's count equals what the map holds and fits the budget.
func TestFlightCacheBudgetStress(t *testing.T) {
	const keys, callers, gets = 16, 8, 400
	c := flightCache[int, int]{name: "test", size: func(int) int64 { return 10 }, lru: &budget{limit: 45}}
	var inflight [keys]atomic.Int32
	var builds atomic.Int64
	build := func(k int) func() (int, error) {
		return func() (int, error) {
			if inflight[k].Add(1) != 1 {
				t.Errorf("key %d is being built twice at once", k)
			}
			builds.Add(1)
			runtime.Gosched()
			inflight[k].Add(-1)
			return k * k, nil
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < gets; n++ {
				k, ctx := (n*7+g*3)%keys, context.Background()
				if n%5 == 0 {
					ctx = canceled
				}
				v, err := c.get(ctx, k, build(k))
				if err != nil && !(ctx == canceled && errors.Is(err, context.Canceled)) {
					t.Errorf("get(%d): %v", k, err)
				} else if err == nil && v != k*k {
					t.Errorf("get(%d) = %d", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	// Detached builds may still be landing.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := false
		c.lru.mu.Lock()
		for _, e := range c.m {
			busy = busy || e.elem == nil
		}
		c.lru.mu.Unlock()
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("builds still in flight after 10 s")
		}
	}
	l := eraseLayer(&c)
	if got, held := c.lru.resident, l.held(); got != held || got > c.lru.limit || len(c.m) != c.lru.order.Len() {
		t.Errorf("budget counts %d B in %d entries, map holds %d B in %d, limit %d", got, c.lru.order.Len(), held, len(c.m), c.lru.limit)
	}
	if builds.Load() <= keys {
		t.Errorf("%d builds over %d keys: nothing was ever evicted and rebuilt", builds.Load(), keys)
	}
}

// TestFailedEntryAgesOut: a cached error is charged a nominal size and
// joins the recency list like a value, so a stream of failing keys cannot
// grow the map without bound — and a failure that aged out fails
// identically when rebuilt.
func TestFailedEntryAgesOut(t *testing.T) {
	c := flightCache[int, int]{name: "test", size: func(int) int64 { return 1 }, lru: &budget{limit: 4 * failedEntryBytes}}
	fail := func(k int) func() (int, error) {
		return func() (int, error) { return 0, fmt.Errorf("key %d cannot be built", k) }
	}
	_, first := c.get(context.Background(), 0, fail(0))
	for k := 1; k < 100; k++ {
		if _, err := c.get(context.Background(), k, fail(k)); err == nil {
			t.Fatalf("get(%d) succeeded", k)
		}
	}
	if len(c.m) != 4 || c.lru.resident != 4*failedEntryBytes {
		t.Fatalf("100 failing keys left %d entries (%d B) in a budget of four", len(c.m), c.lru.resident)
	}
	if _, again := c.get(context.Background(), 0, fail(0)); again == nil || again.Error() != first.Error() {
		t.Fatalf("aged-out failure rebuilt as %v, first was %v", again, first)
	}
}
